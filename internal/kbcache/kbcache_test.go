package kbcache

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/gen"
	"guardedrules/internal/kb"
	"guardedrules/internal/parser"
	"guardedrules/internal/termination"
)

// e5Source is the Experiment 5 theory: a nearly guarded mix of guarded
// value invention and a Datalog transitive-closure periphery.
const e5Source = `
	A(X) -> exists Y. R(X,Y).
	R(X,Y) -> B(X).
	E(X,Y) -> T(X,Y).
	T(X,Y), T(Y,Z) -> T(X,Z).
	T(X,Y), B(X), B(Y) -> Linked(X,Y).
`

// tcSource is the E11 workload program: plain Datalog transitive closure.
const tcSource = `
	E(X,Y) -> T(X,Y).
	T(X,Y), T(Y,Z) -> T(X,Z).
`

// wgSource is weakly guarded but not nearly frontier-guarded: the
// second rule's X,Y occur only at affected positions and no single body
// atom guards the frontier.
const wgSource = `
	P(X) -> exists Y,Z. R(X,Y,Z).
	R(X,Y,Z) -> S(Y,Z).
	S(Y,Z), S(Z,W) -> S(Y,W).
`

func e5Facts(n int) *database.Database {
	d := gen.Path(n)
	for i := 0; i <= n; i++ {
		d.Add(core.NewAtom("A", core.Const(fmt.Sprintf("v%d", i))))
	}
	return d
}

func mustRegister(t *testing.T, s *Store, src string) *CompiledKB {
	t.Helper()
	ckb, _, err := s.Register(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	return ckb
}

func mustCQ(t *testing.T, src string) kb.CQ {
	t.Helper()
	q, err := kb.ParseCQ(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// Registration selects the fragment-appropriate mode and caches by
// source hash.
func TestRegisterModesAndCaching(t *testing.T) {
	s := NewStore(Config{})
	dl := mustRegister(t, s, tcSource)
	if dl.Mode != ModeDatalog {
		t.Fatalf("Datalog source compiled in mode %v", dl.Mode)
	}
	if dl.Program() == nil {
		t.Fatal("Datalog KB must carry a base program")
	}
	ng := mustRegister(t, s, e5Source)
	if ng.Mode != ModeTranslated {
		t.Fatalf("nearly guarded source compiled in mode %v", ng.Mode)
	}
	if ng.Program() == nil || len(ng.Chain) == 0 {
		t.Fatal("translated KB must carry dat(Σ) and its chain")
	}
	// wgSource has no Datalog translation, but it is weakly acyclic, so
	// the termination certificate upgrades it to budget-free serving.
	wg := mustRegister(t, s, wgSource)
	if wg.Mode != ModeCertified {
		t.Fatalf("weakly guarded acyclic source compiled in mode %v, want certified", wg.Mode)
	}
	if wg.Termination == nil || wg.Termination.Class != termination.ClassWA || wg.Termination.Certificate == nil {
		t.Fatalf("certified KB must carry the wa report, got %+v", wg.Termination)
	}

	again, cached, err := s.Register(context.Background(), e5Source)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || again != ng {
		t.Fatal("re-registering the same source must return the cached artifact")
	}
	if got := s.Metrics().CompileHits.Load(); got != 1 {
		t.Fatalf("compile hits = %d, want 1", got)
	}
	if _, ok := s.Get(ng.ID); !ok {
		t.Fatal("Get must find a registered KB by id")
	}
}

// Concurrent registrations of one source share a single compilation.
func TestRegisterSingleflight(t *testing.T) {
	s := NewStore(Config{})
	const goroutines = 16
	var wg sync.WaitGroup
	kbs := make([]*CompiledKB, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ckb, _, err := s.Register(context.Background(), e5Source)
			if err != nil {
				t.Error(err)
				return
			}
			kbs[i] = ckb
		}(g)
	}
	wg.Wait()
	if got := s.Metrics().CompileMisses.Load(); got != 1 {
		t.Fatalf("compile misses = %d, want exactly 1 (dedup)", got)
	}
	for _, ckb := range kbs {
		if ckb != kbs[0] {
			t.Fatal("all registrations must share one artifact")
		}
	}
}

// The KB cache is a bounded LRU.
func TestKBEviction(t *testing.T) {
	s := NewStore(Config{MaxKBs: 2})
	first := mustRegister(t, s, tcSource)
	mustRegister(t, s, e5Source)
	mustRegister(t, s, wgSource)
	if s.Len() != 2 {
		t.Fatalf("store holds %d KBs, want 2", s.Len())
	}
	if got := s.Metrics().KBEvictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if _, ok := s.Get(first.ID); ok {
		t.Fatal("the least recently used KB must have been evicted")
	}
}

func answersString(ans [][]core.Term) string { return fmt.Sprint(ans) }

// A translated KB's CQ answers agree with the bounded chase of the
// source theory, and the second identical query is a pure plan hit:
// zero re-translation work, observable in the metrics.
func TestAnswerCQTranslatedMatchesChaseAndCachesPlan(t *testing.T) {
	s := NewStore(Config{})
	ckb := mustRegister(t, s, e5Source)
	q := mustCQ(t, "Linked(X,Y) -> Ans(X,Y).")
	d := e5Facts(5)

	want, exact, err := kb.AnswerByChase(parser.MustParseTheory(e5Source), q, d,
		chase.Options{Variant: chase.Restricted, MaxDepth: 8})
	if err != nil || !exact {
		t.Fatalf("ground-truth chase: exact=%v err=%v", exact, err)
	}
	if len(want) == 0 {
		t.Fatal("ground truth is empty; the fixture is broken")
	}

	res, err := ckb.AnswerCQ(context.Background(), q, d, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.PlanHit {
		t.Fatalf("first call: exact=%v hit=%v, want exact miss", res.Exact, res.PlanHit)
	}
	if same, diff := datalog.SameAnswers(want, res.Answers); !same {
		t.Fatalf("translated answers diverge from the chase: %s", diff)
	}

	misses := s.Metrics().PlanMisses.Load()
	translations := s.Metrics().Translations.Load()
	res2, err := ckb.AnswerCQ(context.Background(), q, d, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.PlanHit {
		t.Fatal("second identical query must hit the plan cache")
	}
	if got := s.Metrics().PlanMisses.Load(); got != misses {
		t.Fatalf("plan misses moved %d -> %d on a repeat query", misses, got)
	}
	if got := s.Metrics().Translations.Load(); got != translations {
		t.Fatalf("translations moved %d -> %d on a repeat query: re-translation happened", translations, got)
	}
	if answersString(res2.Answers) != answersString(res.Answers) {
		t.Fatal("repeat query changed the answers")
	}
}

// Datalog-mode CQ answers agree with direct evaluation, including
// stratified negation in the source.
func TestAnswerCQDatalog(t *testing.T) {
	src := `
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
		Node(X), not T(X,X) -> Acyclic(X).
	`
	s := NewStore(Config{})
	ckb := mustRegister(t, s, src)
	if ckb.Mode != ModeDatalog {
		t.Fatalf("mode %v", ckb.Mode)
	}
	d := gen.Path(6)
	d.Add(parser.MustParseFacts("Node(v0). Node(v3).")[0])
	d.Add(parser.MustParseFacts("Node(v3).")[0])
	res, err := ckb.AnswerCQ(context.Background(), mustCQ(t, "Acyclic(X) -> Ans(X)."), d, QueryOptions{})
	if err != nil || !res.Exact {
		t.Fatalf("exact=%v err=%v", res.Exact, err)
	}
	fix, err := datalog.EvalSemiNaive(parser.MustParseTheory(src), d)
	if err != nil {
		t.Fatal(err)
	}
	want := datalog.CollectAnswers(fix, "Acyclic")
	if same, diff := datalog.SameAnswers(want, res.Answers); !same {
		t.Fatalf("CQ answers diverge: %s", diff)
	}
}

// Chase-mode KBs answer CQs soundly and report exactness via chase
// saturation.
func TestAnswerCQChaseMode(t *testing.T) {
	s := NewStore(Config{})
	ckb := mustRegister(t, s, wgSource)
	d := database.FromAtoms(parser.MustParseFacts("P(a). P(b)."))
	res, err := ckb.AnswerCQ(context.Background(), mustCQ(t, "S(Y,Z) -> Ans(Y,Z)."), d, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatalf("this chase saturates within the default depth; exact=false (answers=%v)", res.Answers)
	}
	// Each P-constant yields one invented pair (y,z) plus the transitive
	// closure over the invented S-chain; answers over nulls are excluded,
	// so the certain answers are empty — but the call must not error.
	if len(res.Answers) != 0 {
		t.Fatalf("S holds only between nulls; got %v", res.Answers)
	}
}

// The plan cache is a bounded LRU; eviction forces a rebuild that
// reproduces the same answers.
func TestPlanEvictionAndRebuild(t *testing.T) {
	s := NewStore(Config{MaxPlansPerKB: 2})
	ckb := mustRegister(t, s, tcSource)
	d := gen.Path(5)
	queries := []string{
		"T(X,Y) -> Ans(X,Y).",
		"T(v0,Y) -> Ans(Y).",
		"T(X,v4) -> Ans(X).",
	}
	first, err := ckb.AnswerCQ(context.Background(), mustCQ(t, queries[0]), d, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries[1:] {
		if _, err := ckb.AnswerCQ(context.Background(), mustCQ(t, q), d, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Metrics().PlanEvictions.Load(); got == 0 {
		t.Fatal("three plans in a 2-slot cache must evict")
	}
	again, err := ckb.AnswerCQ(context.Background(), mustCQ(t, queries[0]), d, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.PlanHit {
		t.Fatal("evicted plan must be rebuilt, not hit")
	}
	if same, diff := datalog.SameAnswers(first.Answers, again.Answers); !same {
		t.Fatalf("rebuilt plan diverged: %s", diff)
	}
}

// Atomic queries share one magic plan per binding pattern; the seed is
// regenerated from the actual constants.
func TestAnswerAtomMagicPlanSharing(t *testing.T) {
	s := NewStore(Config{})
	ckb := mustRegister(t, s, tcSource)
	d := gen.Path(6)
	q1 := core.NewAtom("T", core.Const("v0"), core.Var("Y"))
	q2 := core.NewAtom("T", core.Const("v3"), core.Var("Y"))

	res1, err := ckb.AnswerAtom(context.Background(), q1, d, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res1.PlanHit {
		t.Fatal("first atom query must build the plan")
	}
	res2, err := ckb.AnswerAtom(context.Background(), q2, d, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.PlanHit || res2.PlanKey != res1.PlanKey {
		t.Fatalf("same binding pattern must share the plan: hit=%v key=%q vs %q",
			res2.PlanHit, res2.PlanKey, res1.PlanKey)
	}
	// Ground truth via the uncached magic path.
	for _, tc := range []struct {
		q core.Atom
		r *QueryResult
	}{{q1, res1}, {q2, res2}} {
		want, _, err := datalog.AnswerWithMagic(parser.MustParseTheory(tcSource), tc.q, d)
		if err != nil {
			t.Fatal(err)
		}
		if same, diff := datalog.SameAnswers(want, tc.r.Answers); !same {
			t.Fatalf("atom %v: %s", tc.q, diff)
		}
	}
	// A free-free query gets its own plan (full evaluation fallback is
	// fine too, but the key must differ).
	res3, err := ckb.AnswerAtom(context.Background(), core.NewAtom("T", core.Var("X"), core.Var("Y")), d, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res3.PlanKey == res1.PlanKey {
		t.Fatal("different adornments must not share a key")
	}
}

// A relation that no rule derives is read from the database's facts:
// atom queries and single-atom CQs over it answer as full evaluation of
// the base program does, and run no engine, so the join counters stay
// put.
func TestAnswerAtomEDBFallback(t *testing.T) {
	s := NewStore(Config{})
	ckb := mustRegister(t, s, tcSource)
	d := gen.Path(3)
	res, err := ckb.AnswerAtom(context.Background(), core.NewAtom("E", core.Const("v0"), core.Var("Y")), d, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Answers[0][1] != core.Const("v1") {
		t.Fatalf("E(v0,Y) = %v, want [[v0 v1]]", res.Answers)
	}

	d.Add(core.NewAtom("E", core.Const("v2"), core.Const("v2")))
	sels := []*Selector{
		ckb.AtomSelector(core.NewAtom("E", core.Var("X"), core.Var("Y"))),
		ckb.AtomSelector(core.NewAtom("E", core.Var("X"), core.Var("X"))),
		ckb.CQSelector(mustCQ(t, "E(X,Y) -> Ans(Y,X).")),
		ckb.CQSelector(mustCQ(t, "E(v1,Y) -> Ans(Y).")),
		ckb.CQSelector(mustCQ(t, "E(v0,v1) -> Ans().")),
	}
	for _, sel := range sels {
		before := s.Metrics().Snapshot()
		got, err := ckb.Read(context.Background(), sel, d, QueryOptions{})
		if err != nil || !got.Exact || !strings.Contains(got.Chain[0], "no rule derives E") {
			t.Fatalf("%s: exact %v err %v chain %q, want a read of the database's facts", sel.Key(), got != nil && got.Exact, err, got.Chain)
		}
		if after := s.Metrics().Snapshot(); after["join_round_plans"] != before["join_round_plans"] {
			t.Fatalf("%s ran the engine", sel.Key())
		}
		full, _, err := ckb.Materialize(context.Background(), sel, d, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Metrics().Snapshot()["join_round_plans"] == before["join_round_plans"] {
			t.Fatal("full evaluation left the join counters put: they cannot tell an engine run")
		}
		if fmt.Sprint(got.Answers) != fmt.Sprint(full.Answers) || len(got.Answers) == 0 {
			t.Fatalf("%s: %v, full evaluation %v", sel.Key(), got.Answers, full.Answers)
		}
	}
}

// One CompiledKB shared by many goroutines answers byte-identically to
// the sequential baseline. Run under -race.
func TestConcurrentSharedKBStress(t *testing.T) {
	s := NewStore(Config{})
	ckb := mustRegister(t, s, e5Source)
	d := e5Facts(6)
	queries := []kb.CQ{
		mustCQ(t, "Linked(X,Y) -> Ans(X,Y)."),
		mustCQ(t, "T(X,Y), B(Y) -> Ans(X)."),
		mustCQ(t, "B(X) -> Ans(X)."),
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := ckb.AnswerCQ(context.Background(), q, d, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = answersString(res.Answers)
	}
	const goroutines = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 3*len(queries); i++ {
				j := (seed + i) % len(queries)
				res, err := ckb.AnswerCQ(context.Background(), queries[j], d, QueryOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				if answersString(res.Answers) != want[j] {
					t.Errorf("goroutine %d query %d diverged from sequential answers", seed, j)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// A budget-exhausted query returns sound partial answers with the typed
// error, and the exhaustion is counted.
func TestQueryBudgetExhaustion(t *testing.T) {
	s := NewStore(Config{})
	ckb := mustRegister(t, s, tcSource)
	d := gen.Path(40)
	res, err := ckb.AnswerCQ(context.Background(), mustCQ(t, "T(X,Y) -> Ans(X,Y)."), d,
		QueryOptions{Budget: &budget.T{MaxFacts: 50}})
	if err == nil {
		t.Fatal("a 50-fact ceiling on a 40-path closure must exhaust")
	}
	if !budget.IsBudget(err) {
		t.Fatalf("want a typed budget error, got %v", err)
	}
	if res == nil || res.Exact {
		t.Fatal("partial answers must be returned inexact")
	}
	full, err2 := ckb.AnswerCQ(context.Background(), mustCQ(t, "T(X,Y) -> Ans(X,Y)."), d, QueryOptions{})
	if err2 != nil {
		t.Fatal(err2)
	}
	fullSet := map[string]bool{}
	for _, tup := range full.Answers {
		fullSet[answersString([][]core.Term{tup})] = true
	}
	for _, tup := range res.Answers {
		if !fullSet[answersString([][]core.Term{tup})] {
			t.Fatalf("partial answer %v is not in the full answer set", tup)
		}
	}
	if s.Metrics().BudgetExhausted.Load() == 0 {
		t.Fatal("budget exhaustion must be counted")
	}
}

// Answer lists are ordered by name, then kind: the same facts inserted
// in two orders give identical lists even when a constant and a null
// share a name, through a read of the DB's facts and a derived
// relation's plan.
func TestAnswerOrderIgnoresInsertionOrder(t *testing.T) {
	ckb := mustRegister(t, NewStore(Config{}), "R(X,Y) -> S(X,Y).")
	var facts []core.Atom
	for i := 0; i < 40; i++ {
		n := fmt.Sprintf("n%d", i)
		facts = append(facts,
			core.NewAtom("R", core.Const("a"), core.Const(n)),
			core.NewAtom("R", core.Const("a"), core.NewNull(n)))
	}
	fwd, rev := database.New(), database.New()
	for i := range facts {
		fwd.Add(facts[i])
		rev.Add(facts[len(facts)-1-i])
	}
	for _, rel := range []string{"R", "S"} {
		q := core.NewAtom(rel, core.Const("a"), core.Var("Y"))
		var lists [2]string
		for i, d := range []*database.Database{fwd, rev} {
			res, err := ckb.AnswerAtom(context.Background(), q, d, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			lists[i] = fmt.Sprint(res.Answers)
		}
		if lists[0] != lists[1] {
			t.Fatalf("%v: answer order depends on insertion order:\n%s\n%s", q, lists[0], lists[1])
		}
	}
}
