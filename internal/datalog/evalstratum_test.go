package datalog

import (
	"fmt"
	"testing"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/gen"
	"guardedrules/internal/parser"
)

// Table-driven edge cases of the stratum fixpoint. Every case is checked
// against the chase-based evaluator and, where given, against expected
// present/absent atoms. Row workers=N evaluates N requests at once over
// the shared input (see evalConcurrently).
func TestEvalStratumEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		theory  string
		facts   string
		present []string
		absent  []string
	}{
		{
			name:    "empty positive body",
			theory:  `-> P(k). P(X) -> Q2(X).`,
			facts:   `Dummy(d).`,
			present: []string{"P(k)", "Q2(k)"},
		},
		{
			name: "empty positive body with negated literal",
			theory: `Seed(X) -> Blocked(b1).
				 not Blocked(b1) -> Fired(y1).
				 not Blocked(b2) -> Fired(y2).`,
			facts:   `Seed(s).`,
			present: []string{"Fired(y2)"},
			absent:  []string{"Fired(y1)"},
		},
		{
			name:    "multi-head rule",
			theory:  `E(X,Y) -> A(X), B(Y).`,
			facts:   `E(a,b).`,
			present: []string{"A(a)", "B(b)"},
		},
		{
			name: "multi-head rule spanning delta positions",
			// Both body atoms of the last rule are derived, so every
			// delta position must be tried; both heads must land.
			theory: `S(X) -> L(X). S(X) -> R2(X).
				 L(X), R2(X) -> Both1(X), Both2(X).`,
			facts:   `S(a). S(b).`,
			present: []string{"Both1(a)", "Both2(a)", "Both1(b)", "Both2(b)"},
		},
		{
			name: "multi-head feeding recursion",
			theory: `E(X,Y) -> T(X,Y), Rev(Y,X).
				 T(X,Y), T(Y,Z) -> T(X,Z).
				 Rev(X,Y), Rev(Y,Z) -> Rev(X,Z).`,
			facts:   `E(a,b). E(b,c).`,
			present: []string{"T(a,c)", "Rev(c,a)"},
			absent:  []string{"T(c,a)", "Rev(a,c)"},
		},
		{
			name: "same relation twice in body",
			theory: `E(X,Y) -> T(X,Y).
				 T(X,Y), T(Y,Z) -> T(X,Z).`,
			facts:   `E(a,b). E(b,c). E(c,d).`,
			present: []string{"T(a,d)"},
		},
		{
			name: "negation against lower stratum",
			theory: `E(X,Y) -> T(X,Y).
				 T(X,Y), T(Y,X) -> Sym(X).
				 Node(X), not Sym(X) -> Asym(X).`,
			facts:   `Node(a). Node(b). Node(c). E(a,b). E(b,a). E(b,c).`,
			present: []string{"Asym(c)"},
			absent:  []string{"Asym(a)", "Asym(b)"},
		},
		{
			name:    "constants in rule bodies",
			theory:  `E(a,Y) -> FromA(Y). E(X,Y), FromA(X) -> FromA(Y).`,
			facts:   `E(a,b). E(b,c). E(z,w).`,
			present: []string{"FromA(b)", "FromA(c)"},
			absent:  []string{"FromA(w)"},
		},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				th := parser.MustParseTheory(c.theory)
				d := database.FromAtoms(parser.MustParseFacts(c.facts))
				p, err := Compile(th)
				if err != nil {
					t.Fatal(err)
				}
				fix, err := evalConcurrently(t, p, d, Options{}, workers)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range c.present {
					a := parser.MustParseFacts(s + ".")[0]
					if !fix.Has(a) {
						t.Errorf("missing %s", s)
					}
				}
				for _, s := range c.absent {
					a := parser.MustParseFacts(s + ".")[0]
					if fix.Has(a) {
						t.Errorf("unexpected %s", s)
					}
				}
				ref, err := EvalViaChase(th, d)
				if err != nil {
					t.Fatal(err)
				}
				if ok, diff := database.SameGroundAtoms(fix, ref); !ok {
					t.Errorf("disagrees with chase evaluator: %s", diff)
				}
			})
		}
	}
}

// datalogOnly strips existential rules, leaving the Datalog fragment of a
// generated theory.
func datalogOnly(th *core.Theory) *core.Theory {
	out := core.NewTheory()
	for _, r := range th.Rules {
		if r.IsDatalog() {
			out.Add(r)
		}
	}
	return out
}

// Differential test over the random-theory corpus: the semi-naive
// evaluator and the chase-based evaluator must derive exactly the same
// ground atoms.
func TestSemiNaiveDifferentialCorpus(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		theories := []*core.Theory{
			datalogOnly(gen.RandomGuardedTheory(8, seed)),
			datalogOnly(gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 8, Seed: seed})),
		}
		for ti, th := range theories {
			if len(th.Rules) == 0 {
				continue
			}
			d := gen.ABDatabase(8, seed)
			fix, err := EvalSemiNaiveOpts(th, d, Options{})
			if err != nil {
				t.Fatalf("seed %d theory %d: %v", seed, ti, err)
			}
			ref, err := EvalViaChase(th, d)
			if err != nil {
				t.Fatalf("seed %d theory %d: via chase: %v", seed, ti, err)
			}
			if ok, diff := database.SameGroundAtoms(fix, ref); !ok {
				t.Fatalf("seed %d theory %d: %s", seed, ti, diff)
			}
		}
	}
}

// Parallel requests over one shared snapshot must each match the single
// evaluation exactly. Run under -race this also exercises the
// copy-on-write snapshot discipline of concurrent clones.
func TestParallelMatchesSequentialLarge(t *testing.T) {
	th := parser.MustParseTheory(`
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
		T(X,X) -> Cyclic(X).
		Node(X), not Cyclic(X) -> Acyclic(X).
	`)
	d := gen.RandomGraph(60, 150, 7)
	p, err := Compile(th)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := p.Eval(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := evalConcurrently(t, p, d, Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if par.String() != seq.String() {
		t.Fatal("parallel requests differ from the single evaluation")
	}
}
