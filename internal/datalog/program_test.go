package datalog

import (
	"sync"
	"testing"

	"guardedrules/internal/database"
	"guardedrules/internal/gen"
	"guardedrules/internal/parser"
)

// A compiled Program must give the same fixpoint as the one-shot
// evaluator, and stay reusable across databases.
func TestProgramMatchesEvalSemiNaive(t *testing.T) {
	th := parser.MustParseTheory(`
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
		Node(X), not T(X,X) -> Acyclic(X).
	`)
	p, err := Compile(th)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rules() != 3 || p.Strata() < 2 {
		t.Fatalf("rules=%d strata=%d", p.Rules(), p.Strata())
	}
	for _, n := range []int{4, 9} {
		d := gen.Path(n)
		d.Add(parser.MustParseFacts("Node(v0).")[0])
		want, err := EvalSemiNaive(th, d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Eval(d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if same, diff := database.SameGroundAtoms(want, got); !same {
			t.Fatalf("n=%d: %s", n, diff)
		}
	}
}

// evalConcurrently evaluates p over d on n goroutines at once — n
// requests served from one compiled program over one shared snapshot —
// and returns the outcome of the first, failing the test unless all n
// runs agree on failing or not and return byte-identical databases.
func evalConcurrently(t *testing.T, p *Program, d *database.Database, opts Options, n int) (*database.Database, error) {
	t.Helper()
	res := make([]*database.Database, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], errs[i] = p.Eval(d, opts)
		}(i)
	}
	wg.Wait()
	for i := range res {
		if (errs[i] == nil) != (errs[0] == nil) {
			t.Fatalf("concurrent evaluation %d of %d: err %v, evaluation 0: %v", i, n, errs[i], errs[0])
		}
		if (res[i] == nil) != (res[0] == nil) || res[i] != nil && res[i].String() != res[0].String() {
			t.Fatalf("concurrent evaluation %d of %d diverged from evaluation 0", i, n)
		}
	}
	return res[0], errs[0]
}

// One Program shared by many goroutines over one database must not race
// (the compiled templates are read-only; per-run state is private). Run
// under -race.
func TestProgramConcurrentEval(t *testing.T) {
	th := parser.MustParseTheory(`
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`)
	p, err := Compile(th)
	if err != nil {
		t.Fatal(err)
	}
	d := gen.Path(12)
	want, err := p.Eval(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := evalConcurrently(t, p, d, Options{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("concurrent Eval diverged from sequential result")
	}
}
