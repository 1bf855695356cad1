package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"guardedrules/internal/server"
)

// harnessConfig parameterizes one load run.
type harnessConfig struct {
	Addr     string        // target base URL; "" boots in-process
	Duration time.Duration // total, split across Levels
	Levels   []int         // client concurrency sweep
	Chaos    bool          // include fault-injection ops
	Seed     int64
}

// runStat counts the outcomes of one workload at one concurrency level.
type runStat struct {
	Workload string `json:"workload"`
	Level    int    `json:"level"`
	Count    int    `json:"count"`
	Errors   int    `json:"errors"` // unexpected statuses/transport failures
	Shed     int    `json:"shed"`   // 429s (expected under saturation)
}

// report is the harness outcome; Violations empty means every invariant
// held for the whole run.
type report struct {
	Target     string           `json:"target"`
	DurationS  float64          `json:"duration_s"`
	Chaos      bool             `json:"chaos"`
	Runs       []runStat        `json:"runs"`
	Violations []string         `json:"violations"`
	Final      map[string]int64 `json:"final_metrics"`
}

func (r *report) JSON() []byte {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return []byte(fmt.Sprintf(`{"error": %q}`, err.Error()))
	}
	return blob
}

// gaugeKeys are the /metrics keys free to move in both directions;
// every other key must be monotone across snapshots.
var gaugeKeys = map[string]bool{
	"dbs": true, "kbs": true, "ready": true,
	"in_flight": true, "in_flight_heavy": true, "in_flight_light": true,
	"queued_heavy": true, "queued_light": true,
	"goroutines": true, "subscriptions": true, "views": true,
}

const (
	hotSource = `
		A(X) -> exists Y. R(X,Y).
		R(X,Y) -> B(X).
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
		T(X,Y), B(X), B(Y) -> Linked(X,Y).
	`
	hotCQ    = "Linked(X,Y) -> Ans(X,Y)."
	fanoutCQ = "T(X,Y), T(Y,Z), B(X), B(Y) -> Ans(X,Z)."
	hotAtom  = "T(v0,Y)"
)

func hotFacts() string {
	var b strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "E(v%d,v%d). A(v%d). ", i, i+1, i)
	}
	return b.String()
}

// harness is the mutable state of one run.
type harness struct {
	cfg    harnessConfig
	base   string
	client *http.Client
	// streamClient has no request timeout: it holds SSE subscriptions
	// open for a whole level.
	streamClient *http.Client

	thID, dbID string
	mutDBID    string          // the mutable DB the mutation workload batches against
	refHot     map[string]bool // full answer set of hotCQ
	refFanout  map[string]bool // full answer set of fanoutCQ
	novel      atomic.Int64    // novel-theory counter (compile-miss storm)

	mu         sync.Mutex
	counts     map[string]int // workload -> operations (current level)
	errs       map[string]int
	shed       map[string]int
	violations []string
}

func (h *harness) violate(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.violations) < 100 { // don't let a broken server OOM the report
		h.violations = append(h.violations, fmt.Sprintf(format, args...))
	}
}

func (h *harness) record(workload string, unexpected bool, shed bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.counts[workload]++
	if unexpected {
		h.errs[workload]++
	}
	if shed {
		h.shed[workload]++
	}
}

// runHarness executes the configured sweep and returns the report.
func runHarness(cfg harnessConfig) (*report, error) {
	h := &harness{cfg: cfg}
	h.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
		},
	}
	h.streamClient = &http.Client{Transport: h.client.Transport}

	var shutdown func() error
	if cfg.Addr == "" {
		base, stop, err := bootInProcess()
		if err != nil {
			return nil, err
		}
		h.base = base
		shutdown = stop
	} else {
		h.base = strings.TrimRight(cfg.Addr, "/")
	}

	if err := h.setup(); err != nil {
		return nil, err
	}
	baselineGoroutines := h.metricsGauge("goroutines")

	rep := &report{Target: h.base, Chaos: cfg.Chaos, Violations: []string{}}
	start := time.Now()
	perLevel := cfg.Duration / time.Duration(len(cfg.Levels))
	prev := h.metricsSnapshot()
	for _, level := range cfg.Levels {
		h.mu.Lock()
		h.counts = map[string]int{}
		h.errs = map[string]int{}
		h.shed = map[string]int{}
		h.mu.Unlock()

		// One live query rides the whole level; after the clients stop,
		// its accumulated deltas must equal an exact recompute.
		sub := h.startSubscriber()
		h.runLevel(level, perLevel)
		h.finishSubscriber(sub)

		// Liveness after each level: a dead process fails every remaining
		// check anyway, but name the level it died in.
		if !h.healthy() {
			h.violate("healthz not 200 after level %d", level)
		}
		cur := h.metricsSnapshot()
		h.checkMonotonic(prev, cur, level)
		prev = cur

		rep.Runs = append(rep.Runs, h.summarize(level)...)
	}
	rep.DurationS = time.Since(start).Seconds()

	// Goroutine-leak check: after the load stops, the gauge must return
	// to the post-setup baseline (slack for server-internal churn).
	h.awaitGoroutineBaseline(baselineGoroutines)

	rep.Final = h.metricsSnapshot()
	if shutdown != nil {
		if err := shutdown(); err != nil {
			h.violate("in-process server drain failed: %v", err)
		}
	}
	h.mu.Lock()
	rep.Violations = append(rep.Violations, h.violations...)
	h.mu.Unlock()
	return rep, nil
}

// bootInProcess starts a chaos-enabled server on a loopback port,
// returning its base URL and a graceful-drain closure.
func bootInProcess() (base string, stop func() error, err error) {
	srv := server.New(server.Config{
		DefaultTimeout: 10 * time.Second,
		MaxFacts:       500_000,
		HeavyLimit:     1,
		HeavyQueue:     1,
		MaxQueueWait:   100 * time.Millisecond,
		Chaos:          true,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 2 * time.Second,
		IdleTimeout:       time.Minute,
	}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() error {
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(ctx)
	}, nil
}

// setup registers the hot fixtures and captures the reference (full,
// exact) answer sets that soundness checks compare against.
func (h *harness) setup() error {
	var th struct {
		ID string `json:"id"`
	}
	if code, err := h.post("/v1/theories", map[string]string{"source": hotSource}, &th); err != nil || code != 200 {
		return fmt.Errorf("setup: register hot theory: code %d err %v", code, err)
	}
	h.thID = th.ID
	var db struct {
		ID string `json:"id"`
	}
	if code, err := h.post("/v1/dbs", map[string]string{"facts": hotFacts()}, &db); err != nil || code != 200 {
		return fmt.Errorf("setup: load facts: code %d err %v", code, err)
	}
	h.dbID = db.ID
	var mut struct {
		ID string `json:"id"`
	}
	if code, err := h.post("/v1/dbs", map[string]string{"facts": mutFacts()}, &mut); err != nil || code != 200 {
		return fmt.Errorf("setup: load mutable facts: code %d err %v", code, err)
	}
	h.mutDBID = mut.ID
	var err error
	if h.refHot, err = h.referenceAnswers(hotCQ); err != nil {
		return fmt.Errorf("setup: hot reference: %w", err)
	}
	if h.refFanout, err = h.referenceAnswers(fanoutCQ); err != nil {
		return fmt.Errorf("setup: fanout reference: %w", err)
	}
	return nil
}

func (h *harness) referenceAnswers(cq string) (map[string]bool, error) {
	var res struct {
		Answers [][]string `json:"answers"`
		Exact   bool       `json:"exact"`
	}
	code, err := h.post("/v1/query", map[string]any{"theory_id": h.thID, "db_id": h.dbID, "cq": cq}, &res)
	if err != nil || code != 200 || !res.Exact {
		return nil, fmt.Errorf("code %d exact %v err %v", code, res.Exact, err)
	}
	set := make(map[string]bool, len(res.Answers))
	for _, a := range res.Answers {
		set[fmt.Sprint(a)] = true
	}
	return set, nil
}

// runLevel drives the mixed workload at the given client concurrency
// until the deadline.
func (h *harness) runLevel(workers int, d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(h.cfg.Seed + int64(w)*7919))
			for time.Now().Before(deadline) {
				h.step(rng)
			}
		}(w)
	}
	wg.Wait()
}

// step executes one randomly drawn operation.
func (h *harness) step(rng *rand.Rand) {
	n := rng.Intn(100)
	switch {
	case n < 30:
		h.opQuery(rng, "query_hot", hotCQ, h.refHot)
	case n < 44:
		h.opQuery(rng, "query_fanout", fanoutCQ, h.refFanout)
	case n < 54:
		h.opAtom(rng)
	case n < 64:
		h.opCompileMiss(rng)
	case n < 70:
		h.opRegisterHot(rng)
	case n < 75:
		h.opLoadDB(rng)
	case n < 84:
		h.opMutate(rng)
	default:
		if !h.cfg.Chaos {
			h.opQuery(rng, "query_hot", hotCQ, h.refHot)
			return
		}
		switch c := rng.Intn(100); {
		case c < 22:
			h.opFailAt(rng)
		case c < 36:
			h.opPanicEngine(rng)
		case c < 45:
			h.opPanicHandler(rng)
		case c < 58:
			h.opMalformed(rng)
		case c < 76:
			h.opDisconnect(rng)
		case c < 88:
			h.opHog(rng)
		default:
			h.opSlowLoris(rng)
		}
	}
}

// opQuery posts a CQ and validates the response against the reference.
func (h *harness) opQuery(rng *rand.Rand, workload, cq string, ref map[string]bool) {
	var res struct {
		Answers   [][]string `json:"answers"`
		Exact     bool       `json:"exact"`
		Truncated bool       `json:"truncated"`
	}
	code, err := h.postChecked429("/v1/query", map[string]any{
		"theory_id": h.thID, "db_id": h.dbID, "cq": cq,
	}, &res)
	switch {
	case err != nil:
		h.record(workload, true, false)
	case code == 429:
		h.record(workload, false, true)
	case code != 200:
		h.record(workload, true, false)
		h.violate("%s: unexpected status %d", workload, code)
	default:
		if res.Exact && len(res.Answers) != len(ref) {
			h.violate("%s: exact answer count %d != reference %d", workload, len(res.Answers), len(ref))
		}
		h.checkSubset(workload, res.Answers, ref)
		h.record(workload, false, false)
	}
}

func (h *harness) opAtom(rng *rand.Rand) {
	code, err := h.postChecked429("/v1/query", map[string]any{
		"theory_id": h.thID, "db_id": h.dbID, "atom": hotAtom,
	}, nil)
	h.recordByStatus("query_atom", code, err, 200)
}

// opCompileMiss registers a fresh never-seen theory: the compile-miss
// storm that must be absorbed by the heavy tier.
func (h *harness) opCompileMiss(rng *rand.Rand) {
	id := h.novel.Add(1)
	src := fmt.Sprintf(
		"A%d(X) -> exists Y. R%d(X,Y). R%d(X,Y) -> B%d(X). E%d(X,Y) -> T%d(X,Y). T%d(X,Y), T%d(Y,Z) -> T%d(X,Z).",
		id, id, id, id, id, id, id, id, id)
	code, err := h.postChecked429("/v1/theories", map[string]string{"source": src}, nil)
	h.recordByStatus("theories_miss", code, err, 200)
}

func (h *harness) opRegisterHot(rng *rand.Rand) {
	code, err := h.postChecked429("/v1/theories", map[string]string{"source": hotSource}, nil)
	h.recordByStatus("theories_hit", code, err, 200)
}

func (h *harness) opLoadDB(rng *rand.Rand) {
	code, err := h.postChecked429("/v1/dbs", map[string]string{"facts": hotFacts()}, nil)
	h.recordByStatus("dbs", code, err, 200)
}

// opFailAt injects budget exhaustion mid-evaluation: the response must
// be a sound truncated subset of the reference fixpoint.
func (h *harness) opFailAt(rng *rand.Rand) {
	var res struct {
		Answers   [][]string `json:"answers"`
		Truncated bool       `json:"truncated"`
		Exact     bool       `json:"exact"`
	}
	code, err := h.postChecked429("/v1/query", map[string]any{
		"theory_id": h.thID, "db_id": h.dbID, "cq": fanoutCQ,
		"fail_at": 1 + rng.Intn(60),
	}, &res)
	switch {
	case err != nil:
		h.record("chaos_failat", true, false)
	case code == 429:
		h.record("chaos_failat", false, true)
	case code != 200:
		h.record("chaos_failat", true, false)
		h.violate("chaos_failat: unexpected status %d", code)
	default:
		// Either the budget tripped (truncated partial) or the injection
		// point was past the run's checkpoints (exact). Both must be
		// subsets of the reference fixpoint.
		h.checkSubset("chaos_failat", res.Answers, h.refFanout)
		if !res.Truncated && !res.Exact {
			h.violate("chaos_failat: neither truncated nor exact")
		}
		h.record("chaos_failat", false, false)
	}
}

// opPanicEngine injects a panic at an engine checkpoint: the contained
// outcome is a 500 (or a 200 when the injection point was never
// reached); anything else — especially a dead process — is a violation.
func (h *harness) opPanicEngine(rng *rand.Rand) {
	code, err := h.postChecked429("/v1/query", map[string]any{
		"theory_id": h.thID, "db_id": h.dbID, "cq": fanoutCQ,
		"panic_at": 1 + rng.Intn(40),
	}, nil)
	switch {
	case err != nil:
		h.record("chaos_panic_engine", true, false)
		h.violate("chaos_panic_engine: transport error (server died?): %v", err)
	case code == 200 || code == 500:
		h.record("chaos_panic_engine", false, false)
	case code == 429:
		h.record("chaos_panic_engine", false, true)
	default:
		h.record("chaos_panic_engine", true, false)
		h.violate("chaos_panic_engine: unexpected status %d", code)
	}
}

func (h *harness) opPanicHandler(rng *rand.Rand) {
	code, err := h.postChecked429("/v1/query", map[string]any{
		"theory_id": h.thID, "db_id": h.dbID, "cq": hotCQ,
		"panic_handler": true,
	}, nil)
	switch {
	case err != nil:
		h.record("chaos_panic_handler", true, false)
		h.violate("chaos_panic_handler: transport error (server died?): %v", err)
	case code == 500:
		h.record("chaos_panic_handler", false, false)
	case code == 429:
		h.record("chaos_panic_handler", false, true)
	default:
		h.record("chaos_panic_handler", true, false)
		h.violate("chaos_panic_handler: status %d, want 500", code)
	}
}

// opMalformed posts garbage and expects a clean 400.
func (h *harness) opMalformed(rng *rand.Rand) {
	resp, err := h.client.Post(h.base+"/v1/query", "application/json",
		strings.NewReader(`{"theory_id": "x", truncated garbage`))
	if err != nil {
		h.record("chaos_malformed", true, false)
		return
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		h.violate("chaos_malformed: status %d, want 400", resp.StatusCode)
		h.record("chaos_malformed", true, false)
		return
	}
	h.record("chaos_malformed", false, false)
}

// opDisconnect abandons a slow request mid-flight; the server must
// absorb the cancellation (checked globally via health + leak gauges).
func (h *harness) opDisconnect(rng *rand.Rand) {
	body, _ := json.Marshal(map[string]any{
		"theory_id": h.thID, "db_id": h.dbID, "cq": fanoutCQ,
		"delay_ms": 200,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, h.base+"/v1/query", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err == nil {
		resp.Body.Close()
	}
	h.record("chaos_disconnect", false, false)
}

// opHog parks on a heavy admission slot (an uncached query shape plus
// an injected delay), driving the tier toward saturation so the shed
// path — 429 + Retry-After — is exercised under real concurrency.
func (h *harness) opHog(rng *rand.Rand) {
	code, err := h.postChecked429("/v1/query", map[string]any{
		"theory_id": h.thID, "db_id": h.dbID,
		// A fresh body constant makes every hog a distinct query shape
		// (CQKey hashes the body atoms, not the answer-relation name),
		// hence a plan miss routed through the heavy tier.
		"cq":       fmt.Sprintf("T(X,Y), T(Y,hog%d) -> AnsHog(X).", h.novel.Add(1)),
		"delay_ms": 100 + rng.Intn(200),
	}, nil)
	h.recordByStatus("chaos_hog", code, err, 200)
}

// opSlowLoris opens a raw connection, dribbles half a request line, and
// abandons it; ReadHeaderTimeout must reap it without operator help.
func (h *harness) opSlowLoris(rng *rand.Rand) {
	addr := strings.TrimPrefix(h.base, "http://")
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		h.record("chaos_sloworis", true, false)
		h.violate("chaos_sloworis: dial failed (server died?): %v", err)
		return
	}
	conn.Write([]byte("POST /v1/query HTTP/1.1\r\nHost: loadgen\r\nContent-Le"))
	time.Sleep(10 * time.Millisecond)
	conn.Close()
	h.record("chaos_sloworis", false, false)
}

// recordByStatus treats okCode as success, 429 as shed, all else error.
func (h *harness) recordByStatus(workload string, code int, err error, okCode int) {
	switch {
	case err != nil:
		h.record(workload, true, false)
	case code == okCode:
		h.record(workload, false, false)
	case code == 429:
		h.record(workload, false, true)
	default:
		h.record(workload, true, false)
		h.violate("%s: unexpected status %d", workload, code)
	}
}

func (h *harness) checkSubset(workload string, answers [][]string, ref map[string]bool) {
	for _, a := range answers {
		if !ref[fmt.Sprint(a)] {
			h.violate("%s: answer %v not in the reference fixpoint (unsound partial)", workload, a)
			return
		}
	}
}

// post sends a JSON body and decodes a JSON response.
func (h *harness) post(path string, body any, out any) (int, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := h.client.Post(h.base+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == 200 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// postChecked429 is post plus the shed invariant: every 429 must carry
// Retry-After.
func (h *harness) postChecked429(path string, body any, out any) (int, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := h.client.Post(h.base+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == 429 && resp.Header.Get("Retry-After") == "" {
		h.violate("%s: 429 without Retry-After", path)
	}
	if out != nil && resp.StatusCode == 200 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func (h *harness) healthy() bool {
	resp, err := h.client.Get(h.base + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == 200
}

func (h *harness) metricsSnapshot() map[string]int64 {
	resp, err := h.client.Get(h.base + "/metrics")
	if err != nil {
		h.violate("metrics unreachable: %v", err)
		return nil
	}
	defer resp.Body.Close()
	var m map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		h.violate("metrics undecodable: %v", err)
		return nil
	}
	return m
}

func (h *harness) metricsGauge(key string) int64 {
	if m := h.metricsSnapshot(); m != nil {
		return m[key]
	}
	return -1
}

// checkMonotonic verifies every non-gauge key moved forward (or held)
// between snapshots.
func (h *harness) checkMonotonic(prev, cur map[string]int64, level int) {
	if prev == nil || cur == nil {
		return
	}
	for k, before := range prev {
		if gaugeKeys[k] {
			continue
		}
		if after, ok := cur[k]; ok && after < before {
			h.violate("metrics counter %s went backwards (%d -> %d) at level %d", k, before, after, level)
		}
	}
}

// awaitGoroutineBaseline polls the goroutines gauge until it returns to
// the post-setup baseline (plus slack for server-internal pools), or
// flags a leak.
func (h *harness) awaitGoroutineBaseline(baseline int64) {
	if baseline < 0 {
		return
	}
	const slack = 24
	deadline := time.Now().Add(10 * time.Second)
	var last int64
	for time.Now().Before(deadline) {
		last = h.metricsGauge("goroutines")
		if last >= 0 && last <= baseline+slack {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	h.violate("goroutine leak: gauge stuck at %d, baseline %d (+%d slack)", last, baseline, slack)
}

// summarize reports the level's per-workload outcome counts.
func (h *harness) summarize(level int) []runStat {
	h.mu.Lock()
	defer h.mu.Unlock()
	names := make([]string, 0, len(h.counts))
	for name := range h.counts {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]runStat, 0, len(names))
	for _, name := range names {
		out = append(out, runStat{
			Workload: name,
			Level:    level,
			Count:    h.counts[name],
			Errors:   h.errs[name],
			Shed:     h.shed[name],
		})
	}
	return out
}
