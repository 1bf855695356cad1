package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The chaos run: seeded workers send every kind of request the server
// takes, fault injection included, to a chaos-enabled server whose heavy
// tier has one slot, while one subscription follows a DB the workers
// mutate. Each worker runs a fixed sequence drawn from the seed, so
// every op kind runs on every run, whatever the machine's speed.
// Slow-loris reaping needs the ReadHeaderTimeout that httptest does not
// set; cmd/rulekit's TestServeSlowLorisReaped checks it.

const (
	chaosFanoutCQ = "T(X,Y), T(Y,Z), B(X), B(Y) -> Ans(X,Z)."
	chaosHotCQ    = "Linked(X,Y) -> Ans(X,Y)."
	chaosAtom     = "T(v0,Y)"
	chaosMutCQ    = "T(X,Y) -> Ans(X,Y)."
	chaosMutNodes = 13
	chaosWorkers  = 4
	chaosRounds   = 2 // times each worker runs each op kind
)

// chaosGauges are the /metrics keys free to move both ways; every other
// key is a counter and must never decrease.
var chaosGauges = map[string]bool{
	"dbs": true, "kbs": true, "ready": true,
	"in_flight": true, "in_flight_heavy": true, "in_flight_light": true,
	"queued_heavy": true, "queued_light": true,
	"goroutines": true, "subscriptions": true, "views": true,
}

// chaosRef is the exact answer list of a read of the hot DB, and its
// rows as a set.
type chaosRef struct {
	list string
	set  map[string]bool
}

type chaosRun struct {
	t                 *testing.T
	base              string
	client            *http.Client
	thID, dbID, mutID string
	refs              map[string]chaosRef // by CQ or atom

	novel     atomic.Int64 // names never-seen theories and query shapes
	shed      atomic.Int64
	truncated atomic.Int64
}

// chaosOps are the op kinds; a worker runs each chaosRounds times.
var chaosOps = []struct {
	name string
	do   func(c *chaosRun, rng *rand.Rand)
}{
	{"query_hot", func(c *chaosRun, _ *rand.Rand) { c.query(queryRequest{CQ: chaosHotCQ}) }},
	{"query_fanout", func(c *chaosRun, _ *rand.Rand) { c.query(queryRequest{CQ: chaosFanoutCQ}) }},
	{"query_atom", func(c *chaosRun, _ *rand.Rand) { c.query(queryRequest{Atom: chaosAtom}) }},
	{"theories_miss", func(c *chaosRun, _ *rand.Rand) {
		id := c.novel.Add(1)
		src := fmt.Sprintf("A%d(X) -> exists Y. R%d(X,Y). R%d(X,Y) -> B%d(X). E%d(X,Y) -> T%d(X,Y). T%d(X,Y), T%d(Y,Z) -> T%d(X,Z).",
			id, id, id, id, id, id, id, id, id)
		c.expect("/v1/theories", theoryRequest{Source: src}, 200)
	}},
	{"theories_hit", func(c *chaosRun, _ *rand.Rand) { c.expect("/v1/theories", theoryRequest{Source: e5Source}, 200) }},
	{"dbs", func(c *chaosRun, _ *rand.Rand) { c.expect("/v1/dbs", dbRequest{Facts: e5Facts}, 200) }},
	{"facts_batch", func(c *chaosRun, rng *rand.Rand) {
		fact := fmt.Sprintf("E(u%d,u%d).", rng.Intn(chaosMutNodes), rng.Intn(chaosMutNodes))
		req := factsRequest{Add: fact}
		if rng.Intn(100) < 40 {
			req = factsRequest{Retract: fact}
		}
		c.expect("/v1/dbs/"+c.mutID+"/facts", req, 200)
	}},
	{"fail_at", func(c *chaosRun, rng *rand.Rand) {
		c.query(queryRequest{CQ: chaosFanoutCQ, FailAt: 1 + rng.Int63n(20)})
	}},
	{"panic_engine", func(c *chaosRun, rng *rand.Rand) {
		c.query(queryRequest{CQ: chaosFanoutCQ, PanicAt: 1 + rng.Int63n(3)}, 500)
	}},
	{"panic_handler", func(c *chaosRun, _ *rand.Rand) {
		c.expect("/v1/query", c.read(queryRequest{CQ: chaosHotCQ, PanicHandler: true}), 500)
	}},
	{"malformed", func(c *chaosRun, _ *rand.Rand) {
		resp, err := c.client.Post(c.base+"/v1/query", "application/json", strings.NewReader(`{"theory_id": "x", truncated garbage`))
		if err != nil {
			c.t.Errorf("malformed: %v", err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			c.t.Errorf("malformed: status %d, want 400", resp.StatusCode)
		}
	}},
	{"disconnect", func(c *chaosRun, _ *rand.Rand) {
		// The client gives up mid-request; health and the goroutine
		// gauge show whether the server absorbed it.
		body, _ := json.Marshal(c.read(queryRequest{CQ: chaosFanoutCQ, DelayMS: 200}))
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/query", bytes.NewReader(body))
		if resp, err := c.client.Do(req); err == nil {
			resp.Body.Close()
		}
	}},
	{"hog", func(c *chaosRun, rng *rand.Rand) {
		// Three never-seen query shapes parked on the one heavy slot: one
		// runs, one queues past MaxQueueWait, and the queue is full for
		// the third, so the burst is shed at least once.
		delay := 150 + rng.Intn(100)
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			cq := fmt.Sprintf("T(X,Y), T(Y,hog%d) -> AnsHog(X).", c.novel.Add(1))
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.expect("/v1/query", c.read(queryRequest{CQ: cq, DelayMS: delay}), 200)
			}()
		}
		wg.Wait()
	}},
	{"healthz", func(c *chaosRun, _ *rand.Rand) { c.healthz() }},
}

// healthz requires the liveness probe to answer 200.
func (c *chaosRun) healthz() {
	resp, err := c.client.Get(c.base + "/healthz")
	if err != nil {
		c.t.Errorf("healthz: %v", err)
		return
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		c.t.Errorf("healthz: status %d", resp.StatusCode)
	}
}

// read addresses req to the hot theory and DB.
func (c *chaosRun) read(req queryRequest) queryRequest {
	req.TheoryID, req.DBID = c.thID, c.dbID
	return req
}

// post sends body as JSON and decodes a 200 response into out. Every
// 429 must carry Retry-After.
func (c *chaosRun) post(path string, body, out any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := c.client.Post(c.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		c.shed.Add(1)
		if resp.Header.Get("Retry-After") == "" {
			c.t.Errorf("%s: 429 without Retry-After", path)
		}
	}
	if out != nil && resp.StatusCode == 200 {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode, nil
}

// expect posts body and requires the status want, or a shed.
func (c *chaosRun) expect(path string, body any, want int) {
	if code, err := c.post(path, body, nil); err != nil || (code != want && code != 429) {
		c.t.Errorf("%s: status %d, err %v; want %d", path, code, err, want)
	}
}

// query reads the hot DB and checks a 200 against the reference: an
// exact answer list must equal it, a truncated one must be a subset of
// it. Any status but 200 and 429 must be in also.
func (c *chaosRun) query(req queryRequest, also ...int) {
	var res queryResponse
	code, err := c.post("/v1/query", c.read(req), &res)
	switch {
	case err != nil:
		c.t.Errorf("query %+v: %v", req, err)
	case code == 200:
		ref := c.refs[req.CQ+req.Atom]
		for _, row := range res.Answers {
			if !ref.set[fmt.Sprint(row)] {
				c.t.Errorf("query %+v: answer %v is not a reference answer", req, row)
			}
		}
		switch {
		case res.Truncated:
			c.truncated.Add(1)
		case !res.Exact:
			c.t.Errorf("query %+v: neither exact nor truncated", req)
		case fmt.Sprint(res.Answers) != ref.list:
			c.t.Errorf("query %+v: exact answers %v, reference %s", req, res.Answers, ref.list)
		}
	case code != 429 && !slices.Contains(also, code):
		c.t.Errorf("query %+v: status %d", req, code)
	}
}

func (c *chaosRun) metrics() map[string]int64 {
	resp, err := c.client.Get(c.base + "/metrics")
	if err != nil {
		c.t.Errorf("metrics: %v", err)
		return nil
	}
	defer resp.Body.Close()
	var m map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		c.t.Errorf("metrics: %v", err)
	}
	return m
}

// checkMonotone requires every counter of prev to have held or grown in
// cur.
func (c *chaosRun) checkMonotone(after string, prev, cur map[string]int64) {
	for k, before := range prev {
		if now, ok := cur[k]; ok && !chaosGauges[k] && now < before {
			c.t.Errorf("counter %s went %d -> %d across %s", k, before, now, after)
		}
	}
}

// worker runs every op kind chaosRounds times in a seeded order, reading
// /metrics after each op.
func (c *chaosRun) worker(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var seq []int
	for r := 0; r < chaosRounds; r++ {
		for i := range chaosOps {
			seq = append(seq, i)
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	last := c.metrics()
	for _, i := range seq {
		chaosOps[i].do(c, rng)
		cur := c.metrics()
		c.checkMonotone(chaosOps[i].name, last, cur)
		last = cur
	}
}

// Under the chaos run the server stays up, answers soundly, sheds with
// Retry-After, keeps its counters monotone, contains every injected
// panic, leaks no goroutine, and the subscription's snapshot plus
// deltas ends equal to a recompute.
func TestChaosRunCleans(t *testing.T) {
	_, ts := newHardenedServer(t, Config{
		MaxFacts:     500_000,
		HeavyLimit:   1,
		HeavyQueue:   1,
		MaxQueueWait: 100 * time.Millisecond,
		Chaos:        true,
	})
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	c := &chaosRun{t: t, base: ts.URL, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, refs: map[string]chaosRef{}}
	c.thID, c.dbID = registerFixtures(t, ts.URL)
	var mutFacts strings.Builder
	for i := 0; i < chaosMutNodes-1; i++ {
		fmt.Fprintf(&mutFacts, "E(u%d,u%d). ", i, i+1)
	}
	var mut dbResponse
	if code := post(t, ts.URL+"/v1/dbs", dbRequest{Facts: mutFacts.String()}, &mut); code != 200 {
		t.Fatalf("mutable db: status %d", code)
	}
	c.mutID = mut.ID
	for _, req := range []queryRequest{{CQ: chaosHotCQ}, {CQ: chaosFanoutCQ}, {Atom: chaosAtom}} {
		var res queryResponse
		if code := post(t, ts.URL+"/v1/query", c.read(req), &res); code != 200 || !res.Exact {
			t.Fatalf("reference %+v: status %d, exact %v", req, code, res.Exact)
		}
		set := map[string]bool{}
		for _, row := range res.Answers {
			set[fmt.Sprint(row)] = true
		}
		c.refs[req.CQ+req.Atom] = chaosRef{fmt.Sprint(res.Answers), set}
	}
	sub := follow(t, ts.URL+"/v1/dbs/"+c.mutID+"/subscribe", subscribeRequest{TheoryID: c.thID, CQ: chaosMutCQ})
	before := metricsSnapshot(t, ts.URL)

	var wg sync.WaitGroup
	for w := 0; w < chaosWorkers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c.worker(seed)
		}(1 + int64(w)*7919)
	}
	wg.Wait()

	// A last batch, once the heavy tier has drained, ends the delta
	// stream at a known version.
	var fr factsResponse
	for i := 0; ; i++ {
		code := post(t, ts.URL+"/v1/dbs/"+c.mutID+"/facts", factsRequest{Add: "SubSync(s)."}, &fr)
		if code == 200 {
			break
		}
		if code != 429 || i == 50 {
			t.Fatalf("last batch: status %d", code)
		}
		time.Sleep(20 * time.Millisecond)
	}
	var got string
	for v := mut.Version + 1; v <= fr.Version; v++ {
		got = sub.next(t, v)
	}
	var fresh queryResponse
	post(t, ts.URL+"/v1/query", queryRequest{TheoryID: c.thID, DBID: c.mutID, CQ: chaosMutCQ}, &fresh)
	if want := sortedRows(t, rowsJSON(t, fresh.Answers)); got != want || fresh.DBVersion != fr.Version {
		t.Fatalf("snapshot plus deltas at version %d:\n%s\nrecompute at version %d:\n%s", fr.Version, got, fresh.DBVersion, want)
	}

	c.healthz()
	// Without the client's idle connections, the goroutine gauge must
	// return to where it stood before the run.
	tr.CloseIdleConnections()
	const slack = 24
	deadline := time.Now().Add(10 * time.Second)
	for n := c.metrics()["goroutines"]; n > before["goroutines"]+slack; n = c.metrics()["goroutines"] {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines, %d before the run (+%d slack)", n, before["goroutines"], slack)
		}
		time.Sleep(50 * time.Millisecond)
	}

	after := metricsSnapshot(t, ts.URL)
	c.checkMonotone("the run", before, after)
	if after["panics_recovered"] == 0 || after["engine_panics"] == 0 {
		t.Errorf("contained panics: panics_recovered %d, engine_panics %d; want both > 0",
			after["panics_recovered"], after["engine_panics"])
	}
	if after["subs_dropped"] != 0 {
		t.Errorf("subs_dropped %d, want 0", after["subs_dropped"])
	}
	if c.shed.Load() == 0 || c.truncated.Load() == 0 {
		t.Errorf("sheds %d, truncated answers %d: the Retry-After and subset checks never ran", c.shed.Load(), c.truncated.Load())
	}
	t.Logf("ops %d, sheds %d, truncated %d, batches %d", chaosWorkers*chaosRounds*len(chaosOps), c.shed.Load(), c.truncated.Load(), fr.Version-mut.Version)
}
