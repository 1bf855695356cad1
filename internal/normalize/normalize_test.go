package normalize

import (
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/gen"
	"guardedrules/internal/parser"
	"guardedrules/internal/termination"
)

func TestIsNormal(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{`A(X) -> exists Y. R(X,Y).`, true},
		{`A(X) -> P(X), Q2(X).`, false},                // multi-head
		{`R(X,Y), S(Y,Z) -> exists W. T(Y,W).`, false}, // unguarded existential
		{`A(X) -> P(X,c).`, false},                     // constant in non-fact rule
		{`-> P(c).`, true},                             // constant fact
		{`E(X,Y) -> T(X,Y). T(X,Y), T(Y,Z) -> T(X,Z).`, true},
	}
	for _, c := range cases {
		th := parser.MustParseTheory(c.src)
		if got := IsNormal(th); got != c.want {
			t.Errorf("IsNormal(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestNormalizeProducesNormalForm(t *testing.T) {
	srcs := []string{
		`A(X) -> P(X), Q2(X).`,
		`R(X,Y), S(Y,Z) -> exists W. T(Y,W).`,
		`A(X) -> P(X,c).`,
		`A(X), B(Y) -> exists Z. R(X,Z), S(Z,Y).`,
		`A(X) -> exists Y. R(X,Y,c), P(Y).`,
		`-> P(c). A(X) -> B(X).`,
	}
	for _, src := range srcs {
		th := parser.MustParseTheory(src)
		n := Normalize(th)
		if !IsNormal(n) {
			t.Errorf("Normalize(%q) not normal:\n%v", src, n)
		}
		if err := n.CheckSafe(); err != nil {
			t.Errorf("Normalize(%q) unsafe: %v", src, err)
		}
	}
}

// Normalization must preserve ground atomic consequences over the original
// signature (Proposition 1(b)), witnessed by chasing both theories.
func TestNormalizePreservesConsequences(t *testing.T) {
	cases := []struct {
		theory string
		facts  string
	}{
		{
			`A(X) -> P(X), Q2(X). P(X), Q2(X) -> W(X).`,
			`A(a). A(b).`,
		},
		{
			`R(X,Y), S(Y,Z) -> exists W. T(Y,W). T(Y,W) -> U(Y).`,
			`R(a,b). S(b,c).`,
		},
		{
			`A(X) -> B(X,c). B(X,Y), C(Y) -> W(X).`,
			`A(a). C(c).`,
		},
		{
			`A(X), B(Y) -> exists Z. R(X,Z), S(Z,Y). R(X,Z), S(Z,Y) -> Pair(X,Y).`,
			`A(a). B(b).`,
		},
	}
	for _, c := range cases {
		th := parser.MustParseTheory(c.theory)
		orig := th.Clone()
		n := Normalize(th)
		d := database.FromAtoms(parser.MustParseFacts(c.facts))
		origRels := make(map[string]bool)
		for _, rk := range orig.Relations() {
			origRels[rk.Name] = true
		}
		r1, err := chase.Run(orig, d, chase.Options{Variant: chase.Restricted, MaxDepth: 6})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := chase.Run(n, d, chase.Options{Variant: chase.Restricted, MaxDepth: 6})
		if err != nil {
			t.Fatal(err)
		}
		g1 := r1.DB.Restrict(func(k core.RelKey) bool { return origRels[k.Name] })
		g2 := r2.DB.Restrict(func(k core.RelKey) bool { return origRels[k.Name] })
		if ok, diff := database.SameGroundAtoms(g1, g2); !ok {
			t.Errorf("theory %q: consequence mismatch: %s", c.theory, diff)
		}
	}
}

// Proposition 1(c): normalization keeps weakly/nearly (frontier-)guarded
// theories in their class.
func TestNormalizePreservesClasses(t *testing.T) {
	cases := []string{
		// weakly guarded with constants and multi-heads
		`A(X) -> exists Y. R(X,Y). R(X,Y), A(X) -> P(Y), W(X).`,
		// nearly guarded: safe datalog rule + guarded existential
		`E(X,Y) -> T(X,Y). T(X,Y), T(Y,Z) -> T(X,Z). A(X) -> exists Y. R(X,Y).`,
		// weakly frontier-guarded
		`A(X) -> exists Y. R(X,Y). R(X,Y), R(Z,Y), B(Z) -> P(Y), Q2(Z).`,
	}
	for _, src := range cases {
		th := parser.MustParseTheory(src)
		before := classify.Classify(th)
		after := classify.Classify(Normalize(th))
		for _, f := range []classify.Fragment{
			classify.WeaklyGuarded, classify.WeaklyFrontierGuarded,
			classify.NearlyGuarded, classify.NearlyFrontierGuarded,
		} {
			if before.Member[f] && !after.Member[f] {
				t.Errorf("theory %q: normalization lost %v (offender %v)", src, f, after.Offender[f])
			}
		}
	}
}

func TestNormalizeIdempotentOnNormal(t *testing.T) {
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		E(X,Y) -> T(X,Y).
	`)
	n := Normalize(th)
	if len(n.Rules) != len(th.Rules) {
		t.Errorf("normal theory must be unchanged: %d vs %d rules", len(n.Rules), len(th.Rules))
	}
}

func TestNormalizeConstantInHeadOnly(t *testing.T) {
	th := parser.MustParseTheory(`A(X) -> B(X,c).`)
	n := Normalize(th)
	if !IsNormal(n) {
		t.Fatalf("not normal:\n%v", n)
	}
	d := database.FromAtoms(parser.MustParseFacts(`A(a).`))
	fix, err := datalog.Eval(n, d)
	if err != nil {
		t.Fatal(err)
	}
	if !fix.Has(core.NewAtom("B", core.Const("a"), core.Const("c"))) {
		t.Error("B(a,c) must still be derived after constant elimination")
	}
}

func TestNormalizeMultiHeadWithExistential(t *testing.T) {
	th := parser.MustParseTheory(`A(X), B(Y) -> exists Z. R(X,Z), S(Z,Y).`)
	n := Normalize(th)
	if !IsNormal(n) {
		t.Fatalf("not normal:\n%v", n)
	}
	// The existential HD rule must be guarded after the two-step split.
	for _, r := range n.Rules {
		if len(r.Exist) > 0 && !classify.IsGuarded(r) {
			t.Errorf("existential rule not guarded: %v", r)
		}
	}
}

// Randomized Proposition 1: normalization of random fragment samples
// yields normal theories preserving class membership and (on weakly
// acyclic samples) ground consequences.
func TestNormalizeRandomized(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		for _, th := range []*core.Theory{
			gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 6, Seed: seed}),
			gen.RandomGuardedTheory(6, seed),
			gen.RandomWFGTheory(6, seed),
		} {
			before := classify.Classify(th)
			n := Normalize(th.Clone())
			if !IsNormal(n) {
				t.Fatalf("seed %d: not normal:\n%v", seed, n)
			}
			after := classify.Classify(n)
			for _, f := range []classify.Fragment{
				classify.WeaklyGuarded, classify.WeaklyFrontierGuarded,
				classify.NearlyGuarded, classify.NearlyFrontierGuarded,
			} {
				if before.Member[f] && !after.Member[f] {
					t.Errorf("seed %d: lost %v:\n%v\n->\n%v", seed, f, th, n)
				}
			}
			if !termination.IsWeaklyAcyclic(th) {
				continue
			}
			d := gen.ABDatabase(5, seed)
			r1, err := chase.Run(th, d, chase.Options{Variant: chase.Restricted, Budget: &budget.T{MaxFacts: 200_000}})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := chase.Run(n, d, chase.Options{Variant: chase.Restricted, Budget: &budget.T{MaxFacts: 400_000}})
			if err != nil {
				t.Fatal(err)
			}
			if !r1.Saturated || !r2.Saturated {
				continue
			}
			rels := make(map[string]bool)
			for _, rk := range th.Relations() {
				rels[rk.Name] = true
			}
			a := r1.DB.Restrict(func(k core.RelKey) bool { return rels[k.Name] })
			b := r2.DB.Restrict(func(k core.RelKey) bool { return rels[k.Name] })
			if ok, diff := database.SameGroundAtoms(a, b); !ok {
				t.Errorf("seed %d: %s", seed, diff)
			}
		}
	}
}
