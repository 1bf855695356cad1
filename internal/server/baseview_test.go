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

// Differential over the base view: random add/retract batches on a DB
// whose single-atom subscriptions keep the KB's base view live. At every
// version each single-atom CQ and each atom query (constants, repeated
// variables, a permuted answer, Boolean CQs) is served from the base
// view, byte-identical to AnswerCQ or AnswerAtom on a from-scratch DB of
// that version's facts; every subscriber's snapshot plus deltas equals a
// from-scratch recompute; and all of them share one fixpoint, advanced
// by one Apply per batch.
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
			universe = append(universe, core.NewAtom(core.ACDom, core.Const("z")))

			const steps = 8
			for step := 0; step < steps; step++ {
				version := uint64(step + 1)
				read := func(req queryRequest, want string) {
					t.Helper()
					var resp queryResponse
					if code := post(t, ts.URL+"/v1/query", req, &resp); code != 200 || !resp.Exact || !resp.View || resp.DBVersion != version {
						t.Fatalf("step %d %s%s: status %d exact %v view %v version %d", step, req.CQ, req.Atom, code, resp.Exact, resp.View, resp.DBVersion)
					}
					if got := rowsJSON(t, resp.Answers); got != want {
						t.Fatalf("step %d %s%s:\n got %s\nwant %s", step, req.CQ, req.Atom, got, want)
					}
				}
				for _, cq := range cqs {
					read(queryRequest{TheoryID: th.ID, DBID: db.ID, CQ: cq}, freshRows(t, ref, cq, sh))
				}
				for _, atom := range atoms {
					read(queryRequest{TheoryID: th.ID, DBID: db.ID, Atom: atom}, freshAtomRows(t, ref, atom, sh))
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
					factsRequest{Add: factText(add), Retract: factText(del)}, &fr); code != 200 || fr.Version != version+1 {
					t.Fatalf("step %d batch: status %d version %d", step, code, fr.Version)
				}
				sh.apply(add, del)
				for i, f := range subs {
					if got, want := f.next(t, fr.Version), sortedRows(t, freshRows(t, ref, cqs[i], sh)); got != want {
						t.Fatalf("step %d subscriber %q: snapshot+deltas\n got %s\nwant %s", step, cqs[i], got, want)
					}
				}
			}
			m := metricsSnapshot(t, ts.URL)
			if m["views"] != 1 || m["view_builds"] != 1 || m["maintain_batches"] != steps {
				t.Fatalf("views=%d builds=%d maintain_batches=%d: every reader and subscriber must share one base view, advanced once per batch",
					m["views"], m["view_builds"], m["maintain_batches"])
			}
		})
	}
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
