package datalog

import (
	"testing"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/parser"
)

// Regression for the Stratify soundness bug: without the implicit
// head→ACDom edges, the ACDom-reading rule was scheduled in a stratum
// below the rule introducing the fresh head constant c1, so Seen(c1) was
// never derived (ACDom(c1) only appears after Marked(c1) is inserted).
func TestStratifyACDomAfterConstantIntroduction(t *testing.T) {
	th := parser.MustParseTheory(`
		ACDom(Y) -> Seen(Y).
		Start(X), not Blocked(X) -> Marked(c1).
	`)
	d := database.FromAtoms(parser.MustParseFacts(`Start(a).`))
	for name, eval := range map[string]func(*core.Theory, *database.Database) (*database.Database, error){
		"semi-naive": EvalSemiNaive,
		"via-chase":  EvalViaChase,
	} {
		fix, err := eval(th, d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range []string{"a", "c1"} {
			if !fix.Has(core.NewAtom("Seen", core.Const(c))) {
				t.Errorf("%s: Seen(%s) missing", name, c)
			}
		}
	}
}

// The same hazard inside a single stratum: with no negation everything is
// level 0, so the ACDom-reading rule and the constant-introducing rule
// share a stratum, and the derived ACDom fact must enter the semi-naive
// delta (AddNotify) for Seen(c1) to be found.
func TestACDomDeltaWithinStratum(t *testing.T) {
	th := parser.MustParseTheory(`
		ACDom(Y) -> Seen(Y).
		Start(X) -> Marked(c1).
	`)
	d := database.FromAtoms(parser.MustParseFacts(`Start(a).`))
	for name, eval := range map[string]func(*core.Theory, *database.Database) (*database.Database, error){
		"semi-naive": EvalSemiNaive,
		"via-chase":  EvalViaChase,
	} {
		fix, err := eval(th, d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !fix.Has(core.NewAtom("Seen", core.Const("c1"))) {
			t.Errorf("%s: Seen(c1) missing", name)
		}
	}
}

// Chained constant introduction: the first fresh constant triggers a rule
// that introduces a second one; both must reach the ACDom-reading rule.
func TestACDomChainedConstantIntroduction(t *testing.T) {
	th := parser.MustParseTheory(`
		ACDom(Y) -> Seen(Y).
		Start(X) -> Marked(c1).
		Marked(X) -> Tagged(c2).
	`)
	d := database.FromAtoms(parser.MustParseFacts(`Start(a).`))
	fix, err := EvalSemiNaive(th, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"a", "c1", "c2"} {
		if !fix.Has(core.NewAtom("Seen", core.Const(c))) {
			t.Errorf("Seen(%s) missing", c)
		}
	}
}

// The implicit edges must not reject stratified programs whose heads
// cannot grow the domain: head constants that already occur in the
// positive body introduce nothing, so no edge to ACDom is added and
// negation over such heads stays stratifiable.
func TestStratifyACDomEdgesOnlyForFreshConstants(t *testing.T) {
	th := parser.MustParseTheory(`
		ACDom(X), not P(X) -> Q2(X).
		R(c1) -> P(c1).
	`)
	if _, err := Stratify(th); err != nil {
		t.Fatalf("head constant bound by the body must not create an ACDom cycle: %v", err)
	}
	// A genuinely fresh head constant under negation through ACDom is a
	// real negative cycle and must be rejected.
	bad := parser.MustParseTheory(`
		ACDom(X), not P(X) -> Q2(X).
		Q2(X) -> P(c9).
	`)
	if _, err := Stratify(bad); err == nil {
		t.Error("fresh constant feeding ACDom through negation must be unstratifiable")
	}
}
