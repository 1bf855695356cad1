package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/kb"
	"guardedrules/internal/kbcache"
	"guardedrules/internal/parser"
)

// shadowDB mirrors a served DB's facts, batch by batch, so every version
// can be re-evaluated from scratch.
type shadowDB map[string]core.Atom

func newShadow(facts string) shadowDB {
	sh := shadowDB{}
	sh.apply(parser.MustParseFacts(facts), nil)
	return sh
}

// apply stages a batch as the server does: retractions, then additions.
func (sh shadowDB) apply(add, retract []core.Atom) {
	for _, f := range retract {
		delete(sh, f.String())
	}
	for _, f := range add {
		sh[f.String()] = f
	}
}

func (sh shadowDB) db() *database.Database {
	keys := make([]string, 0, len(sh))
	for k := range sh {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d := database.New()
	for _, k := range keys {
		d.Add(sh[k])
	}
	return d
}

// freshRows answers cq with a fresh AnswerCQ over a from-scratch DB of
// the shadow's facts, rendered as the server renders answers.
func freshRows(t testing.TB, ckb *kbcache.CompiledKB, cq string, sh shadowDB) string {
	t.Helper()
	q, err := kb.ParseCQ(cq)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ckb.AnswerCQ(context.Background(), q, sh.db(), kbcache.QueryOptions{})
	if err != nil || !res.Exact {
		t.Fatalf("reference AnswerCQ: exact %v err %v", res != nil && res.Exact, err)
	}
	return rowsJSON(t, termRows(res.Answers))
}

func rowsJSON(t testing.TB, rows [][]string) string {
	t.Helper()
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func factText(atoms []core.Atom) string {
	var b strings.Builder
	for _, a := range atoms {
		b.WriteString(parser.PrintAtom(a))
		b.WriteString(". ")
	}
	return b.String()
}

func mustRegisterLocal(t *testing.T, src string) *kbcache.CompiledKB {
	t.Helper()
	ckb, _, err := kbcache.NewStore(kbcache.Config{}).Register(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	return ckb
}

// A one-off CQ read keeps no fixpoint. The second read of an unchanged
// DB keeps its fixpoint as the view, and later reads are served from it:
// the same answers, still a plan hit, and no engine run.
func TestViewServesRepeatReads(t *testing.T) {
	ts := newTestServer(t)
	thID, dbID := registerFixtures(t, ts.URL)
	q := queryRequest{TheoryID: thID, DBID: dbID, CQ: "Linked(X,Y) -> Ans(X,Y)."}
	var r [3]queryResponse
	var m [3]map[string]int64
	for i := range r {
		if code := post(t, ts.URL+"/v1/query", q, &r[i]); code != 200 {
			t.Fatalf("query %d: status %d", i, code)
		}
		m[i] = metricsSnapshot(t, ts.URL)
	}
	if m[0]["views"] != 0 || m[0]["maintained_handles"] != 0 {
		t.Fatalf("a one-off read kept a fixpoint: views=%d maintained_handles=%d", m[0]["views"], m[0]["maintained_handles"])
	}
	if m[1]["views"] != 1 || m[1]["view_builds"] != 1 || m[1]["maintained_handles"] != 1 {
		t.Fatalf("after the second read: views=%d builds=%d maintained_handles=%d, want 1/1/1",
			m[1]["views"], m[1]["view_builds"], m[1]["maintained_handles"])
	}
	if r[0].View || r[1].View || !r[2].View || !r[2].PlanHit || !r[2].Exact {
		t.Fatalf("views %v/%v/%v; third read plan_hit=%v exact=%v; want the third read served from the view",
			r[0].View, r[1].View, r[2].View, r[2].PlanHit, r[2].Exact)
	}
	if rowsJSON(t, r[0].Answers) != rowsJSON(t, r[2].Answers) || r[0].Count == 0 {
		t.Fatalf("view answers %v differ from evaluated answers %v", r[2].Answers, r[0].Answers)
	}
	if m[2]["view_hits"] != 1 {
		t.Fatalf("view_hits=%d, want 1", m[2]["view_hits"])
	}
	if m[2]["plan_hits"] != m[1]["plan_hits"]+1 || m[2]["queries"] != m[1]["queries"]+1 {
		t.Fatalf("a view hit must count as a plan-hit query: plan_hits %d -> %d, queries %d -> %d",
			m[1]["plan_hits"], m[2]["plan_hits"], m[1]["queries"], m[2]["queries"])
	}
	if m[2]["join_round_plans"] != m[1]["join_round_plans"] {
		t.Fatal("a view hit ran the engine")
	}
}

// follower accumulates a subscription's snapshot plus deltas.
type follower struct {
	events <-chan sseEvent
	acc    map[string]bool
}

func follow(t *testing.T, url string, req subscribeRequest) *follower {
	t.Helper()
	events, closeStream := sseStream(t, url, req)
	t.Cleanup(closeStream)
	var snap snapshotEvent
	if err := json.Unmarshal([]byte(waitEvent(t, events, "snapshot").Data), &snap); err != nil {
		t.Fatal(err)
	}
	f := &follower{events: events, acc: map[string]bool{}}
	for _, row := range snap.Answers {
		f.acc[rowsJSON(t, [][]string{row})] = true
	}
	return f
}

// next folds the delta of the batch that committed version in, and
// returns the accumulated answers, sorted and rendered as rowsJSON
// renders answer lists.
func (f *follower) next(t *testing.T, version uint64) string {
	t.Helper()
	var d deltaEvent
	if err := json.Unmarshal([]byte(waitEvent(t, f.events, "delta").Data), &d); err != nil {
		t.Fatal(err)
	}
	if d.Version != version {
		t.Fatalf("delta version %d, batch %d", d.Version, version)
	}
	for _, row := range d.Added {
		f.acc[rowsJSON(t, [][]string{row})] = true
	}
	for _, row := range d.Removed {
		delete(f.acc, rowsJSON(t, [][]string{row}))
	}
	rows := make([][]string, 0, len(f.acc))
	for k := range f.acc {
		var row [][]string
		if err := json.Unmarshal([]byte(k), &row); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row[0])
	}
	sort.Slice(rows, func(i, j int) bool { return rowsJSON(t, rows[i:i+1]) < rowsJSON(t, rows[j:j+1]) })
	return rowsJSON(t, rows)
}

// sortedRows renders an answer list in rowsJSON order, to compare it
// with a follower's accumulated answers.
func sortedRows(t *testing.T, list string) string {
	t.Helper()
	var rows [][]string
	if err := json.Unmarshal([]byte(list), &rows); err != nil {
		t.Fatal(err)
	}
	sort.Slice(rows, func(i, j int) bool { return rowsJSON(t, rows[i:i+1]) < rowsJSON(t, rows[j:j+1]) })
	return rowsJSON(t, rows)
}

// Differential: random retract/re-add batch sequences through the HTTP
// server. The first CQ, of one atom, has a live subscription, so the
// base view it reads is carried from version to version by Apply. The
// other two are only read, 0 to 3 times per version. The second needs
// its own plan, so its view is built by a version's second read and
// dropped by the next batch; the third, of one atom, reads the
// subscription's base view from its first read on. Every answer the
// server gives, from a view or not, must be byte-identical to a fresh
// AnswerCQ over a from-scratch DB of that version's facts, and so must
// the subscriber's snapshot plus deltas.
func TestViewDifferentialRandom(t *testing.T) {
	cases := []struct {
		name, src, facts string
		cqs              [3]string
	}{
		{"translated", e5Source, e5Facts + "A(v4). E(v4,v0).",
			[3]string{"Linked(X,Y) -> Ans(X,Y).", "T(X,Y), B(Y) -> Ans(X).", "T(X,Y) -> Ans(X,Y)."}},
		{"acdom", "ACDom(X) -> Dom(X).\n E(X,Y), Dom(Y) -> Reach(X,Y).\n A(X) -> W(X, s).",
			"E(a,b). E(b,c). A(a). S(d).",
			[3]string{"Reach(X,Y) -> Ans(X,Y).", "Reach(X,Y), Dom(Y) -> Ans(X).", "Dom(X) -> Ans(X)."}},
		{"negation", "E(X,Y) -> R(X,Y).\n R(X,Y), R(Y,Z) -> R(X,Z).\n Node(X), not R(X,X) -> Acyclic(X).\n Node(X), not Acyclic(X) -> Cyclic(X).",
			"Node(a). Node(b). Node(c). E(a,b). E(b,a).",
			[3]string{"Cyclic(X) -> Ans(X).", "R(X,Y), Acyclic(Y) -> Ans(X).", "Acyclic(X) -> Ans(X)."}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := newTestServer(t)
			ref := mustRegisterLocal(t, tc.src)
			var th theoryResponse
			if code := post(t, ts.URL+"/v1/theories", theoryRequest{Source: tc.src}, &th); code != 200 {
				t.Fatalf("theories: status %d", code)
			}
			var db dbResponse
			if code := post(t, ts.URL+"/v1/dbs", dbRequest{Facts: tc.facts}, &db); code != 200 {
				t.Fatalf("dbs: status %d", code)
			}
			sub := follow(t, ts.URL+"/v1/dbs/"+db.ID+"/subscribe", subscribeRequest{TheoryID: th.ID, CQ: tc.cqs[0]})
			sh := newShadow(tc.facts)
			universe := append([]core.Atom(nil), sh.db().UserFacts()...)
			consts := sh.db().Constants()
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 6; i++ {
				x, y := consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))]
				universe = append(universe, core.NewAtom("E", x, y), core.NewAtom("A", x), core.NewAtom("Node", x))
			}
			// ACDom for a fresh constant and for one of the loaded facts.
			universe = append(universe, core.NewAtom(core.ACDom, core.Const("z")), core.NewAtom(core.ACDom, consts[0]))

			hits := 0
			for step := 0; step < 12; step++ {
				version := uint64(step + 1)
				for i, cq := range tc.cqs {
					for reads, n := 0, rng.Intn(4); reads < n; reads++ {
						var resp queryResponse
						if code := post(t, ts.URL+"/v1/query", queryRequest{TheoryID: th.ID, DBID: db.ID, CQ: cq}, &resp); code != 200 || !resp.Exact {
							t.Fatalf("step %d %q: status %d exact %v", step, cq, code, resp.Exact)
						}
						if got, want := rowsJSON(t, resp.Answers), freshRows(t, ref, cq, sh); got != want || resp.DBVersion != version {
							t.Fatalf("step %d version %d %q (view %v):\n got %s\nwant %s", step, resp.DBVersion, cq, resp.View, got, want)
						}
						// The single-atom CQs always read the subscribed
						// base view; the other has its own view from its
						// second read at a version on.
						if wantView := i != 1 || reads >= 2; resp.View != wantView {
							t.Fatalf("step %d %q read %d: view %v, want %v", step, cq, reads, resp.View, wantView)
						}
						if resp.View {
							hits++
						}
					}
				}
				var add, del []core.Atom
				for i := 0; i < 1+rng.Intn(2); i++ {
					add = append(add, universe[rng.Intn(len(universe))])
				}
				for i := 0; i < rng.Intn(3); i++ {
					del = append(del, universe[rng.Intn(len(universe))])
				}
				var fr factsResponse
				if code := post(t, ts.URL+"/v1/dbs/"+db.ID+"/facts",
					factsRequest{Add: factText(add), Retract: factText(del)}, &fr); code != 200 {
					t.Fatalf("step %d batch: status %d", step, code)
				}
				if fr.Version != version+1 {
					t.Fatalf("step %d: batch version %d after version %d", step, fr.Version, version)
				}
				sh.apply(add, del)
				if got, want := sub.next(t, fr.Version), sortedRows(t, freshRows(t, ref, tc.cqs[0], sh)); got != want {
					t.Fatalf("step %d: snapshot+deltas\n got %s\nwant %s", step, got, want)
				}
			}
			m := metricsSnapshot(t, ts.URL)
			if hits == 0 || m["view_hits"] != int64(hits) || m["view_drops"] == 0 {
				t.Fatalf("view_hits=%d (responses %d) view_drops=%d: the sequence must hit, and drop subscriber-less views",
					m["view_hits"], hits, m["view_drops"])
			}
		})
	}
}

// Two subscribers on one plan share one maintained fixpoint, a reader
// of the same CQ hits it, and each subscriber's snapshot plus deltas
// equals a recompute after every batch.
func TestSubscribersShareView(t *testing.T) {
	srv := New(Config{DefaultTimeout: 10 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	thID, dbID := registerFixtures(t, ts.URL)
	const cq = "T(X,Y) -> Ans(X,Y)."
	ref := mustRegisterLocal(t, e5Source)
	sh := newShadow(e5Facts)

	var fs []*follower
	for i := 0; i < 2; i++ {
		fs = append(fs, follow(t, ts.URL+"/v1/dbs/"+dbID+"/subscribe", subscribeRequest{TheoryID: thID, CQ: cq}))
	}
	m := metricsSnapshot(t, ts.URL)
	if m["views"] != 1 || m["maintained_handles"] != 1 {
		t.Fatalf("two subscribers on one plan: views=%d maintained_handles=%d, want 1/1", m["views"], m["maintained_handles"])
	}
	ent, _ := srv.dbs.Get(dbID)
	ent.mu.Lock()
	if len(ent.views) != 1 || ent.subscribersLocked() != 2 {
		t.Fatalf("entry holds %d views with %d subscribers, want 1 view with 2", len(ent.views), ent.subscribersLocked())
	}
	ent.mu.Unlock()

	for i, step := range []factsRequest{{Add: "E(v3,v4)."}, {Retract: "E(v1,v2)."}, {Add: "E(v4,v0).", Retract: "E(v0,v1)."}} {
		var fr factsResponse
		if code := post(t, ts.URL+"/v1/dbs/"+dbID+"/facts", step, &fr); code != 200 || fr.Subscribers != 2 {
			t.Fatalf("step %d: status %d subscribers %d", i, code, fr.Subscribers)
		}
		sh.apply(parser.MustParseFacts(step.Add), parser.MustParseFacts(step.Retract))
		want := freshRows(t, ref, cq, sh)
		for k, f := range fs {
			if got := f.next(t, fr.Version); got != sortedRows(t, want) {
				t.Fatalf("step %d subscriber %d: snapshot+deltas %s, recompute %s", i, k, got, want)
			}
		}
		var resp queryResponse
		post(t, ts.URL+"/v1/query", queryRequest{TheoryID: thID, DBID: dbID, CQ: cq}, &resp)
		if !resp.View || resp.DBVersion != fr.Version || rowsJSON(t, resp.Answers) != want {
			t.Fatalf("step %d: read view=%v version=%d, want the subscribers' view at %d with the recomputed answers",
				i, resp.View, resp.DBVersion, fr.Version)
		}
	}
	if m := metricsSnapshot(t, ts.URL); m["maintain_batches"] != 3 {
		t.Fatalf("maintain_batches = %d, want one Apply per batch for both subscribers", m["maintain_batches"])
	}
}

// Fault-injected reads neither read nor populate a view: they do not
// count toward the two reads that keep a fixpoint, neither fail_at nor
// panic_at builds one, and fail_at truncates even when a view of the
// version exists.
func TestChaosBypassesViews(t *testing.T) {
	_, ts := newHardenedServer(t, Config{Chaos: true})
	thID, dbID := registerFixtures(t, ts.URL)
	const cq = "T(X,Y) -> Ans(X,Y)."
	clean := queryRequest{TheoryID: thID, DBID: dbID, CQ: cq}
	for _, req := range []queryRequest{
		{TheoryID: thID, DBID: dbID, CQ: cq, FailAt: 2},
		{TheoryID: thID, DBID: dbID, CQ: cq, PanicAt: 1},
	} {
		post(t, ts.URL+"/v1/query", req, nil)
	}
	post(t, ts.URL+"/v1/query", clean, nil)
	m := metricsSnapshot(t, ts.URL)
	if m["view_builds"] != 0 || m["views"] != 0 {
		t.Fatalf("chaos reads built or counted toward views: builds=%d views=%d", m["view_builds"], m["views"])
	}

	post(t, ts.URL+"/v1/query", clean, nil)
	var trunc queryResponse
	if code := post(t, ts.URL+"/v1/query", queryRequest{TheoryID: thID, DBID: dbID, CQ: cq, FailAt: 2}, &trunc); code != 200 {
		t.Fatalf("fail_at over a viewed version: status %d", code)
	}
	if trunc.View || !trunc.Truncated {
		t.Fatalf("fail_at over a viewed version: view=%v truncated=%v, want an engine run that truncates", trunc.View, trunc.Truncated)
	}
	var hit queryResponse
	post(t, ts.URL+"/v1/query", clean, &hit)
	m = metricsSnapshot(t, ts.URL)
	if !hit.View || m["view_hits"] != 1 || m["view_builds"] != 1 {
		t.Fatalf("clean read after chaos: view=%v hits=%d builds=%d, want the one view built by the second clean read",
			hit.View, m["view_hits"], m["view_builds"])
	}
}

// httpDo posts body to url and decodes the response into out; safe off
// the test goroutine.
func httpDo(url string, body, out any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// Readers hammer /v1/query while a writer commits batches under two
// live subscriptions: every response's answers must be the reference
// answers of the db_version it reports, whether served from a view or
// evaluated.
func TestViewConcurrentReadsMatchVersion(t *testing.T) {
	ts := newTestServer(t)
	thID, dbID := registerFixtures(t, ts.URL)
	const cq = "T(X,Y) -> Ans(X,Y)."
	for _, sq := range []string{cq, "Linked(X,Y) -> Ans(X,Y)."} {
		events, closeStream := sseStream(t, ts.URL+"/v1/dbs/"+dbID+"/subscribe", subscribeRequest{TheoryID: thID, CQ: sq})
		defer closeStream()
		waitEvent(t, events, "snapshot")
	}
	ref := mustRegisterLocal(t, e5Source)

	batches := []factsRequest{
		{Add: "E(v3,v4)."}, {Retract: "E(v1,v2)."}, {Add: "E(v1,v2). E(v4,v5)."},
		{Retract: "E(v0,v1)."}, {Add: "E(v0,v1).", Retract: "E(v3,v4)."}, {Add: "E(v5,v0)."},
	}
	// want[v] is the reference answer list at version v.
	want := map[uint64]string{}
	sh := newShadow(e5Facts)
	want[1] = freshRows(t, ref, cq, sh)
	for i, b := range batches {
		sh.apply(parser.MustParseFacts(b.Add), parser.MustParseFacts(b.Retract))
		want[uint64(i+2)] = freshRows(t, ref, cq, sh)
	}

	type seen struct {
		version uint64
		rows    string
		view    bool
	}
	const readers = 3
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		got  []seen
		done = make(chan struct{})
	)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var resp queryResponse
				code, err := httpDo(ts.URL+"/v1/query", queryRequest{TheoryID: thID, DBID: dbID, CQ: cq}, &resp)
				if err != nil || code != 200 {
					t.Errorf("read: status %d err %v", code, err)
					return
				}
				b, _ := json.Marshal(resp.Answers)
				mu.Lock()
				got = append(got, seen{resp.DBVersion, string(b), resp.View})
				mu.Unlock()
			}
		}()
	}
	for i, b := range batches {
		var fr factsResponse
		if code, err := httpDo(ts.URL+"/v1/dbs/"+dbID+"/facts", b, &fr); err != nil || code != 200 || fr.Version != uint64(i+2) {
			close(done)
			wg.Wait()
			t.Fatalf("batch %d: status %d version %d err %v", i, code, fr.Version, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(done)
	wg.Wait()
	views := 0
	for _, s := range got {
		if s.rows != want[s.version] {
			t.Fatalf("read at version %d (view %v) answered %s, reference %s", s.version, s.view, s.rows, want[s.version])
		}
		if s.view {
			views++
		}
	}
	if len(got) == 0 || views == 0 {
		t.Fatalf("%d reads, %d from views: the hammer must exercise the view path", len(got), views)
	}
}

// A durable reload publishes no provisional version: until setup has
// reopened the segment store, the entry has no version at all, and a
// reader racing the load waits for the store's committed state instead
// of seeing the request's facts under a rewound db_version.
func TestDurableReloadPublishesNoProvisionalVersion(t *testing.T) {
	srv := New(Config{DefaultTimeout: 10 * time.Second, DataDir: t.TempDir(), MaxDBs: 1})
	if err := srv.RestoreData(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.CloseData() })
	var db dbResponse
	if code := post(t, ts.URL+"/v1/dbs", dbRequest{Facts: e5Facts}, &db); code != 200 {
		t.Fatalf("dbs: status %d", code)
	}
	if code := post(t, ts.URL+"/v1/dbs/"+db.ID+"/facts", factsRequest{Add: "E(v3,v4)."}, nil); code != 200 {
		t.Fatalf("facts: status %d", code)
	}
	// Loading another DB evicts this one (MaxDBs=1); reloading it then
	// reopens its segment store at version 2.
	if code := post(t, ts.URL+"/v1/dbs", dbRequest{Facts: "B(z)."}, nil); code != 200 {
		t.Fatalf("evicting load: status %d", code)
	}
	var info dbInfoResponse
	racing := make(chan int, 1)
	srv.loadHook = func(ent *dbEntry) {
		if ent.id != db.ID {
			return
		}
		if v := ent.cur.Load(); v != nil {
			t.Errorf("entry published version %d before its setup", v.version)
		}
		go func() {
			code, _ := httpDoGet(ts.URL+"/v1/dbs/"+ent.id, &info)
			racing <- code
		}()
	}
	var reload dbResponse
	if code := post(t, ts.URL+"/v1/dbs", dbRequest{Facts: e5Facts}, &reload); code != 200 {
		t.Fatalf("reload: status %d", code)
	}
	if code := <-racing; code != 200 {
		t.Fatalf("racing db_info: status %d", code)
	}
	if reload.Version != 2 || info.Version != 2 || info.Facts != reload.Facts {
		t.Fatalf("reload version %d, racing reader saw version %d with %d facts; want version 2 with %d facts",
			reload.Version, info.Version, info.Facts, reload.Facts)
	}
}

func httpDoGet(url string, out any) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// A read installs the fixpoint it evaluated only while the entry is
// still at the version the read pinned: a batch committing during the
// evaluation makes the fixpoint stale, and it must not become the new
// version's view.
func TestViewInstallOnlyAtItsVersion(t *testing.T) {
	srv := New(Config{DefaultTimeout: 10 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	thID, dbID := registerFixtures(t, ts.URL)
	const cq = "T(X,Y) -> Ans(X,Y)."
	ckb, _ := srv.store.Get(thID)
	ent, _ := srv.dbs.Get(dbID)
	q, err := kb.ParseCQ(cq)
	if err != nil {
		t.Fatal(err)
	}
	pinned := ent.cur.Load()
	_, mq, err := ckb.MaterializeCQ(context.Background(), q, pinned.db, kbcache.QueryOptions{})
	if err != nil || mq == nil {
		t.Fatalf("MaterializeCQ: handle %v err %v", mq != nil, err)
	}
	if code := post(t, ts.URL+"/v1/dbs/"+dbID+"/facts", factsRequest{Add: "E(v3,v4)."}, nil); code != 200 {
		t.Fatalf("batch: status %d", code)
	}
	srv.installView(ent, pinned, viewKey{theory: thID, plan: kbcache.CQKey(q)}, mq)
	if m := metricsSnapshot(t, ts.URL); m["view_builds"] != 0 {
		t.Fatalf("a fixpoint of version %d was installed after the entry moved on", pinned.version)
	}
	var resp queryResponse
	post(t, ts.URL+"/v1/query", queryRequest{TheoryID: thID, DBID: dbID, CQ: cq}, &resp)
	sh := newShadow(e5Facts + "E(v3,v4).")
	if resp.View || resp.DBVersion != 2 || rowsJSON(t, resp.Answers) != freshRows(t, mustRegisterLocal(t, e5Source), cq, sh) {
		t.Fatalf("read at version %d: view %v answers %v", resp.DBVersion, resp.View, resp.Answers)
	}
}
