package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"guardedrules/internal/core"
	"guardedrules/internal/gen"
	"guardedrules/internal/kb"
	"guardedrules/internal/kbcache"
	"guardedrules/internal/parser"
)

// freshAtomRows answers an atom query with a fresh AnswerAtom over a
// from-scratch DB of the shadow's facts, rendered as the server renders
// answers.
func freshAtomRows(t testing.TB, ckb *kbcache.CompiledKB, atom string, sh shadowDB) string {
	t.Helper()
	query, err := parseQueryAtom(atom)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ckb.AnswerAtom(context.Background(), query, sh.db(), kbcache.QueryOptions{})
	if err != nil || !res.Exact {
		t.Fatalf("reference AnswerAtom %s: exact %v err %v", atom, res != nil && res.Exact, err)
	}
	return rowsJSON(t, termRows(res.Answers))
}

// baseQueries derives, for every relation of th, single-atom CQs and
// atom queries that read the base view: every position a variable with
// the answer permuted, a bound position, a repeated variable, and a
// Boolean CQ over constants, with constants drawn from consts.
func baseQueries(th *core.Theory, consts []core.Term, rng *rand.Rand) (cqs, atoms []string) {
	arity := map[string]int{core.ACDom: 1}
	for _, r := range th.Rules {
		for _, a := range r.AllAtoms() {
			arity[a.Relation] = len(a.Args)
		}
	}
	rels := make([]string, 0, len(arity))
	for rel := range arity {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	c := func() string { return consts[rng.Intn(len(consts))].Name }
	for _, rel := range rels {
		n := arity[rel]
		if n == 0 {
			continue
		}
		vars, rev, bound, ground := make([]string, n), make([]string, n), make([]string, n), make([]string, n)
		for i := range vars {
			vars[i] = fmt.Sprintf("X%d", i)
			rev[n-1-i] = vars[i]
			bound[i] = vars[i]
			ground[i] = c()
		}
		bound[0] = c()
		atom := func(args []string) string { return rel + "(" + strings.Join(args, ",") + ")" }
		cqs = append(cqs,
			atom(vars)+" -> Ans("+strings.Join(rev, ",")+").",
			atom(bound)+" -> Ans("+strings.Join(bound[1:], ",")+").",
			atom(ground)+" -> Ans().")
		atoms = append(atoms, atom(vars), atom(bound))
		if n >= 2 {
			rep := append([]string{vars[0]}, vars[:n-1]...)
			cqs = append(cqs, atom(rep)+" -> Ans("+strings.Join(append([]string{vars[0]}, vars[1:n-1]...), ",")+").")
			atoms = append(atoms, atom(rep))
		}
	}
	return cqs, atoms
}

// fgFacts is a seeded DB over the frontier-guarded generator's
// signature, the shape of servebench's compile_miss DBs.
func fgFacts(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for k := 0; k < 6; k++ {
		fmt.Fprintf(&b, "%s(d%d). ", []string{"A", "B", "C"}[rng.Intn(3)], rng.Intn(6))
	}
	for k := 0; k < 12; k++ {
		fmt.Fprintf(&b, "%s(d%d,d%d). ", []string{"R", "S"}[rng.Intn(2)], rng.Intn(6), rng.Intn(6))
	}
	return b.String()
}

// atomRoutes names the routes of an atom plan by a mark in its chain.
var atomRoutes = map[string]string{
	"magic sets":              "magic-sets rewriting",
	"database facts":          "read from the database's facts",
	"cone, no bound position": "no bound position",
	"cone, no magic sets":     "magic rewriting not applicable",
}

// Differential over the base view: random add/retract batches on two
// DBs of the same facts. On the first, single-atom subscriptions keep
// the KB's base view live: at every version each single-atom CQ and
// each atom query (constants, repeated variables, a permuted answer,
// Boolean CQs) is served from it, byte-identical to AnswerCQ or
// AnswerAtom on a from-scratch DB of that version's facts; every
// subscriber's snapshot plus deltas equals a from-scratch recompute; and
// all of them share one fixpoint, advanced by one Apply per batch. The
// second DB has no subscriber, so its first read at each version finds
// no view and runs the KB's atom plan, which a different CQ takes each
// version; every CQ also reads its pinned version in process through
// that route. Those answers, too, must be byte-identical to AnswerCQ's
// through a dat(Σ∪q) plan, and the reads take every atom-plan route.
// The cases cover a head constant, relations that no rule derives (read
// from the DB's facts) and nearly frontier-guarded generator theories
// of the compile_miss family.
func TestBaseViewDifferential(t *testing.T) {
	testdata := func(name string) string {
		b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	cases := []struct{ name, src, facts string }{
		{"reachability-negation", testdata("reachability.rules"), testdata("reachability.facts")},
		{"dlsafe-translated", testdata("dlsafe.rules"), testdata("dlsafe.facts")},
		{"example7-guarded", testdata("example7.rules"), testdata("example7.facts") + "A(d). C(d). R(d,c). S(c,d)."},
		{"acdom", "ACDom(X) -> Dom(X).\n E(X,Y), Dom(Y) -> Reach(X,Y).\n A(X) -> W(X, s).", "E(a,b). E(b,c). A(a). S(d)."},
		{"cyclic-negation", "E(X,Y) -> R(X,Y).\n R(X,Y), R(Y,Z) -> R(X,Z).\n Node(X), not R(X,X) -> Acyclic(X).\n Node(X), not Acyclic(X) -> Cyclic(X).",
			"Node(a). Node(b). Node(c). E(a,b). E(b,a)."},
		{"nearly-guarded", e5Source, e5Facts + "A(v4). E(v4,v0)."},
		{"head-constant", "S(X,Y) -> R(X,c).\n R(X,Y), E(Y,Z) -> P(X,Z).\n A(X) -> exists Y. S(X,Y).", "S(a,b). S(b,b). E(c,d). E(a,c). R(d,c). A(e)."},
	}
	for _, seed := range []int64{1, 2, 6, 10} {
		cases = append(cases, struct{ name, src, facts string }{fmt.Sprintf("nfg-seed%d", seed),
			parser.PrintTheory(gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 6, Seed: seed})), fgFacts(seed)})
	}
	routes := map[string]bool{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Config{DefaultTimeout: 10 * time.Second})
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			ref := mustRegisterLocal(t, tc.src)
			var th theoryResponse
			if code := post(t, ts.URL+"/v1/theories", theoryRequest{Source: tc.src}, &th); code != 200 {
				t.Fatalf("theories: status %d", code)
			}
			// The cold DB's facts differ from the hot one's in text only,
			// which gives it its own id.
			var db, cold dbResponse
			if code := post(t, ts.URL+"/v1/dbs", dbRequest{Facts: tc.facts}, &db); code != 200 {
				t.Fatalf("dbs: status %d", code)
			}
			if code := post(t, ts.URL+"/v1/dbs", dbRequest{Facts: tc.facts + " "}, &cold); code != 200 || cold.ID == db.ID {
				t.Fatalf("cold db: status %d id %s", code, cold.ID)
			}
			ckb, _ := srv.Store().Get(th.ID)
			sh := newShadow(tc.facts)
			rng := rand.New(rand.NewSource(11))
			consts := append(sh.db().Constants(), core.Const("z"))
			for c := range parser.MustParseTheory(tc.src).Constants() {
				consts = append(consts, c)
			}
			cqs, atoms := baseQueries(parser.MustParseTheory(tc.src), consts, rng)

			// Every third CQ is also subscribed to.
			subs := map[int]*follower{}
			for i := 0; i < len(cqs); i += 3 {
				subs[i] = follow(t, ts.URL+"/v1/dbs/"+db.ID+"/subscribe", subscribeRequest{TheoryID: th.ID, CQ: cqs[i]})
			}
			universe := append([]core.Atom(nil), sh.db().UserFacts()...)
			for _, f := range sh.db().UserFacts() {
				args := make([]core.Term, len(f.Args))
				for i := range args {
					args[i] = consts[rng.Intn(len(consts))]
				}
				universe = append(universe, core.NewAtom(f.Relation, args...))
			}
			// ACDom for a fresh constant and for one of the loaded facts.
			universe = append(universe, core.NewAtom(core.ACDom, core.Const("z")), core.NewAtom(core.ACDom, sh.db().Constants()[0]))

			const steps = 8
			for step := 0; step < steps; step++ {
				version := uint64(step + 1)
				want := map[string]string{}
				for _, cq := range cqs {
					want[cq] = freshRows(t, ref, cq, sh)
				}
				read := func(req queryRequest, want string, view bool) queryResponse {
					t.Helper()
					var resp queryResponse
					if code := post(t, ts.URL+"/v1/query", req, &resp); code != 200 || !resp.Exact || resp.View != view || resp.DBVersion != version {
						t.Fatalf("step %d %s%s: status %d exact %v view %v (want %v) version %d", step, req.CQ, req.Atom, code, resp.Exact, resp.View, view, resp.DBVersion)
					}
					if got := rowsJSON(t, resp.Answers); got != want {
						t.Fatalf("step %d %s%s:\n got %s\nwant %s", step, req.CQ, req.Atom, got, want)
					}
					return resp
				}
				for _, cq := range cqs {
					read(queryRequest{TheoryID: th.ID, DBID: db.ID, CQ: cq}, want[cq], true)
				}
				for _, atom := range atoms {
					read(queryRequest{TheoryID: th.ID, DBID: db.ID, Atom: atom}, freshAtomRows(t, ref, atom, sh), true)
				}
				// The cold DB: its first read runs the atom plan, its second
				// builds the base view, and the rest read that view.
				for i := range cqs {
					cq := cqs[(i+step*5)%len(cqs)]
					resp := read(queryRequest{TheoryID: th.ID, DBID: cold.ID, CQ: cq}, want[cq], i >= 2)
					if q, _ := kb.ParseCQ(cq); resp.PlanKey != kbcache.AtomKey(q.Atoms[0]) {
						t.Fatalf("step %d %s read %d: plan key %q, want the atom plan's", step, cq, i, resp.PlanKey)
					}
				}
				srv.mu.Lock()
				ent, _ := srv.dbs.Peek(cold.ID)
				srv.mu.Unlock()
				pinned := ent.cur.Load().db
				for _, cq := range cqs {
					q, _ := kb.ParseCQ(cq)
					res, err := ckb.Read(context.Background(), ckb.CQSelector(q), pinned, kbcache.QueryOptions{})
					if err != nil || !res.Exact || res.PlanKey != kbcache.AtomKey(q.Atoms[0]) {
						t.Fatalf("step %d %s: atom-plan read exact %v plan %q err %v", step, cq, res != nil && res.Exact, res.PlanKey, err)
					}
					if got := rowsJSON(t, termRows(res.Answers)); got != want[cq] {
						t.Fatalf("step %d %s, atom-plan read:\n got %s\nwant %s", step, cq, got, want[cq])
					}
					for route, mark := range atomRoutes {
						if strings.Contains(res.Chain[0], mark) {
							routes[route] = true
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
				for _, id := range []string{db.ID, cold.ID} {
					var fr factsResponse
					if code := post(t, ts.URL+"/v1/dbs/"+id+"/facts",
						factsRequest{Add: factText(add), Retract: factText(del)}, &fr); code != 200 || fr.Version != version+1 {
						t.Fatalf("step %d batch: status %d version %d", step, code, fr.Version)
					}
				}
				sh.apply(add, del)
				for i, f := range subs {
					if got, want := f.next(t, version+1), sortedRows(t, freshRows(t, ref, cqs[i], sh)); got != want {
						t.Fatalf("step %d subscriber %q: snapshot+deltas\n got %s\nwant %s", step, cqs[i], got, want)
					}
				}
			}
			// The hot DB keeps one base view; the cold one builds one per
			// version, which the next batch drops.
			m := metricsSnapshot(t, ts.URL)
			if m["views"] != 1 || m["view_builds"] != 1+steps || m["maintain_batches"] != steps {
				t.Fatalf("views=%d builds=%d maintain_batches=%d: every reader and subscriber of the hot DB must share one base view, advanced once per batch, and the cold DB must build one per version",
					m["views"], m["view_builds"], m["maintain_batches"])
			}
		})
	}
	if len(routes) != len(atomRoutes) {
		t.Fatalf("atom-plan routes taken: %v, want all of %v", routes, atomRoutes)
	}
}

// A cold single-atom CQ on a translated nearly frontier-guarded KB
// builds no plan of its own: it runs the KB's atom plan for its atom,
// so it moves plan_misses by one and translates and saturates nothing.
// C is derived by the base program, so its atom plan evaluates the
// rules C depends on; no base rule derives R (compile_miss's CQ), so its
// plan reads the DB's facts. An atom query of C's binding
// pattern then hits C's plan, and the CQ's first read on another DB is
// admitted light. A CQ that needs dat(Σ∪q) still translates, resuming
// the KB's frozen closure.
func TestColdBaseCQReadsAtomPlan(t *testing.T) {
	ts := newTestServer(t)
	src := parser.PrintTheory(gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 6, Seed: 1}))
	facts := "A(d0). S(d0,d1). R(d1,d2). S(d2,d0)."
	var th theoryResponse
	if code := post(t, ts.URL+"/v1/theories", theoryRequest{Source: src}, &th); code != 200 || th.Mode != "translated" || len(th.Chain) != 2 {
		t.Fatalf("theories: status %d mode %s chain %q, want rew then dat", code, th.Mode, th.Chain)
	}
	// Each read below is the first base-view read of its own DB, whose
	// facts differ in text only.
	dbs := make([]string, 5)
	for i := range dbs {
		var db dbResponse
		if code := post(t, ts.URL+"/v1/dbs", dbRequest{Facts: facts + strings.Repeat(" ", i)}, &db); code != 200 {
			t.Fatalf("dbs: status %d", code)
		}
		dbs[i] = db.ID
	}
	ref := mustRegisterLocal(t, src)
	query := func(req queryRequest) (queryResponse, map[string]int64) {
		t.Helper()
		var resp queryResponse
		if code := post(t, ts.URL+"/v1/query", req, &resp); code != 200 || !resp.Exact || resp.View {
			t.Fatalf("%s%s: status %d exact %v view %v", req.CQ, req.Atom, code, resp.Exact, resp.View)
		}
		return resp, metricsSnapshot(t, ts.URL)
	}
	moved := func(before, after map[string]int64, want map[string]int64) {
		t.Helper()
		for k, n := range want {
			if after[k]-before[k] != n {
				t.Errorf("%s moved by %d, want %d", k, after[k]-before[k], n)
			}
		}
	}

	m1 := metricsSnapshot(t, ts.URL)
	for i, tc := range []struct{ cq, plan, route string }{
		{"C(X) -> Ans(X).", "atom:C/f", "base rules C depends on"},
		{"R(X,Y) -> Ans(X,Y).", "atom:R/ff", "no rule derives R"},
	} {
		m0 := m1
		var cq queryResponse
		cq, m1 = query(queryRequest{TheoryID: th.ID, DBID: dbs[i], CQ: tc.cq})
		if cq.PlanKey != tc.plan || cq.PlanHit || !strings.Contains(strings.Join(cq.Chain, "; "), tc.route) {
			t.Fatalf("cold %s: plan %q hit %v chain %q, want a build of %s (%s)", tc.cq, cq.PlanKey, cq.PlanHit, cq.Chain, tc.plan, tc.route)
		}
		if got, want := rowsJSON(t, cq.Answers), freshRows(t, ref, tc.cq, newShadow(facts)); got != want || cq.Count == 0 {
			t.Fatalf("cold %s answers %s, AnswerCQ %s", tc.cq, got, want)
		}
		moved(m0, m1, map[string]int64{"plan_misses": 1, "translations": 0, "saturations_resumed": 0, "saturations_full": 0, "admitted_heavy": 1})
	}

	atom, m2 := query(queryRequest{TheoryID: th.ID, DBID: dbs[2], Atom: "C(Y)"})
	if !atom.PlanHit || atom.PlanKey != "atom:C/f" {
		t.Fatalf("atom query: plan %q hit %v, want a hit on atom:C/f", atom.PlanKey, atom.PlanHit)
	}
	_, m3 := query(queryRequest{TheoryID: th.ID, DBID: dbs[3], CQ: "C(Z) -> Ans(Z)."})
	moved(m2, m3, map[string]int64{"plan_misses": 0, "plan_hits": 1, "admitted_light": 1, "admitted_heavy": 0})

	_, m4 := query(queryRequest{TheoryID: th.ID, DBID: dbs[4], CQ: "C(X), A(X) -> Ans(X)."})
	moved(m3, m4, map[string]int64{"plan_misses": 1, "translations": 1, "saturations_resumed": 1, "saturations_full": 0})
}

// An atom read never installs a view: on a DB without a base view it
// runs its magic-sets plan however often it is read, and leaves the
// views gauge at 0. Once a subscription keeps a base view, the same read
// is served from it. Fault-injected atom reads bypass the base view.
func TestAtomReadsNeverInstallViews(t *testing.T) {
	_, ts := newHardenedServer(t, Config{Chaos: true})
	thID, dbID := registerFixtures(t, ts.URL)
	read := func(req queryRequest) (int, queryResponse) {
		t.Helper()
		var resp queryResponse
		code := post(t, ts.URL+"/v1/query", req, &resp)
		return code, resp
	}
	clean := queryRequest{TheoryID: thID, DBID: dbID, Atom: "T(v0,Y)"}
	var magic queryResponse
	for i := 0; i < 3; i++ {
		code, resp := read(clean)
		if code != 200 || resp.View || resp.Count != 3 || !strings.Contains(strings.Join(resp.Chain, "; "), "magic-sets") {
			t.Fatalf("atom read %d: status %d view %v count %d chain %q, want a magic-sets run", i, code, resp.View, resp.Count, resp.Chain)
		}
		magic = resp
	}
	if m := metricsSnapshot(t, ts.URL); m["views"] != 0 || m["view_builds"] != 0 || m["maintained_handles"] != 0 {
		t.Fatalf("atom reads kept a fixpoint: views=%d builds=%d maintained_handles=%d", m["views"], m["view_builds"], m["maintained_handles"])
	}

	events, closeStream := sseStream(t, ts.URL+"/v1/dbs/"+dbID+"/subscribe", subscribeRequest{TheoryID: thID, CQ: "B(X) -> Ans(X)."})
	defer closeStream()
	waitEvent(t, events, "snapshot")
	code, viewed := read(clean)
	if code != 200 || !viewed.View || !viewed.PlanHit || viewed.PlanKey != magic.PlanKey || rowsJSON(t, viewed.Answers) != rowsJSON(t, magic.Answers) {
		t.Fatalf("atom read beside a base view: status %d view %v plan_hit %v plan %q answers %v; magic-sets answered %v under %q",
			code, viewed.View, viewed.PlanHit, viewed.PlanKey, viewed.Answers, magic.Answers, magic.PlanKey)
	}

	failed := clean
	failed.FailAt = 2
	if code, resp := read(failed); code != 200 || resp.View || !resp.Truncated {
		t.Fatalf("fail_at atom read: status %d view %v truncated %v, want an engine run that truncates", code, resp.View, resp.Truncated)
	}
	panicked := clean
	panicked.PanicAt = 1
	if code, resp := read(panicked); code != 500 || resp.View {
		t.Fatalf("panic_at atom read: status %d view %v, want the contained engine panic", code, resp.View)
	}
	m := metricsSnapshot(t, ts.URL)
	if m["view_hits"] != 1 || m["views"] != 1 || m["engine_panics"] != 1 {
		t.Fatalf("view_hits=%d views=%d engine_panics=%d, want only the clean read served from the one base view",
			m["view_hits"], m["views"], m["engine_panics"])
	}
}

// The notes that make a view's second read at a version keep its
// fixpoint stay bounded by the KB and plan caches on a DB that takes no
// batches: reads of more distinct CQ shapes than the plan cache holds
// leave at most one note per cached plan, plus one for the base view,
// which every single-atom shape shares.
func TestReadNotesBoundedByPlanCache(t *testing.T) {
	const plans = 2
	srv := New(Config{DefaultTimeout: 10 * time.Second, Store: kbcache.Config{MaxPlansPerKB: plans}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	thID, dbID := registerFixtures(t, ts.URL)
	notes := func() int {
		n := 0
		ent, _ := srv.dbs.Peek(dbID)
		ent.cur.Load().readOnce.Range(func(any, any) bool { n++; return true })
		return n
	}
	for i := 0; i < 3*plans; i++ {
		if code := post(t, ts.URL+"/v1/query", queryRequest{TheoryID: thID, DBID: dbID, CQ: fmt.Sprintf("T(v%d,Y) -> Ans(Y).", i)}, nil); code != 200 {
			t.Fatalf("single-atom read %d: status %d", i, code)
		}
	}
	if n := notes(); n != 1 {
		t.Fatalf("%d distinct single-atom shapes left %d notes, want the base view's one", 3*plans, n)
	}
	for i := 0; i < 3*plans; i++ {
		cq := fmt.Sprintf("T(X,Y%d), B(Y%d) -> Ans(X).", i, i)
		if code := post(t, ts.URL+"/v1/query", queryRequest{TheoryID: thID, DBID: dbID, CQ: cq}, nil); code != 200 {
			t.Fatalf("plan-view read %d: status %d", i, code)
		}
	}
	if n := notes(); n > plans+1 {
		t.Fatalf("%d distinct plan-view shapes left %d notes, want at most %d (cached plans, plus the base view)", 3*plans, n, plans+1)
	}
}
