package chase

import (
	"errors"
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/database"
	"guardedrules/internal/parser"
)

// MaxFacts is a hard ceiling: the returned database never exceeds it,
// even when a single trigger application would add several facts
// (the head fact plus derived ACDom facts).

func TestMaxFactsExactBoundary(t *testing.T) {
	th := parser.MustParseTheory(infiniteTheory)
	d := database.FromAtoms(parser.MustParseFacts(`N(a).`))
	// Every application adds exactly one fact (nulls never enter ACDom),
	// so the run stops exactly at the ceiling, with a typed error.
	res, err := Run(th, d, Options{Budget: &budget.T{MaxFacts: 30}})
	if !errors.Is(err, budget.ErrFactLimit) {
		t.Fatalf("err = %v, want ErrFactLimit", err)
	}
	if res.DB.Len() != 30 {
		t.Fatalf("Len = %d, want exactly 30", res.DB.Len())
	}
	if !res.Truncated || !errors.Is(res.Reason, budget.ErrFactLimit) {
		t.Fatalf("Truncated=%v Reason=%v, want ErrFactLimit", res.Truncated, res.Reason)
	}
}

func TestMaxFactsNeverOvershoots(t *testing.T) {
	// Each application of the rule adds two facts: R(x,d) and the derived
	// ACDom(d) (first time). The input holds 4 facts (two Q facts plus two
	// ACDom facts); a ceiling of 5 leaves no room for a 2-fact application,
	// so the engine must stop at 4 rather than overshoot to 6.
	th := parser.MustParseTheory(`Q(X) -> R(X,d).`)
	d := database.FromAtoms(parser.MustParseFacts(`Q(a). Q(b).`))
	res, err := Run(th, d, Options{Budget: &budget.T{MaxFacts: 5}})
	if !errors.Is(err, budget.ErrFactLimit) {
		t.Fatalf("err = %v, want ErrFactLimit", err)
	}
	if res.DB.Len() > 5 {
		t.Fatalf("Len = %d exceeds MaxFacts 5", res.DB.Len())
	}
	if !res.Truncated || !errors.Is(res.Reason, budget.ErrFactLimit) {
		t.Fatalf("Truncated=%v Reason=%v, want ErrFactLimit", res.Truncated, res.Reason)
	}
	// With room for exactly one application (ceiling 6) the run stops at 6.
	res, err = Run(th, d, Options{Budget: &budget.T{MaxFacts: 6}})
	if !errors.Is(err, budget.ErrFactLimit) {
		t.Fatalf("err = %v, want ErrFactLimit", err)
	}
	if res.DB.Len() != 6 {
		t.Fatalf("Len = %d, want exactly 6", res.DB.Len())
	}
}

// Result.Rounds counts the rounds that applied at least one trigger —
// including a final round whose applications were all duplicates.

func TestRoundsCountsProductiveRounds(t *testing.T) {
	// Round 1 derives Q(a); round 2 fires Q(a) → P(a), which adds nothing
	// (P(a) is input) but still applies a trigger. Both rounds count.
	th := parser.MustParseTheory(`P(X) -> Q(X). Q(X) -> P(X).`)
	d := database.FromAtoms(parser.MustParseFacts(`P(a).`))
	res, err := Run(th, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatalf("run must saturate, got %+v", res)
	}
	if res.Steps != 2 {
		t.Fatalf("Steps = %d, want 2", res.Steps)
	}
	if res.Rounds != 2 {
		t.Fatalf("Rounds = %d, want 2 (the duplicate-only final round counts)", res.Rounds)
	}
}

func TestRoundsCeilingReportsCeiling(t *testing.T) {
	th := parser.MustParseTheory(infiniteTheory)
	d := database.FromAtoms(parser.MustParseFacts(`N(a).`))
	res, err := Run(th, d, Options{Budget: &budget.T{MaxRounds: 3}})
	if !errors.Is(err, budget.ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	if !res.Truncated || !errors.Is(res.Reason, budget.ErrRoundLimit) {
		t.Fatalf("Truncated=%v Reason=%v, want ErrRoundLimit", res.Truncated, res.Reason)
	}
	if res.Rounds != 3 {
		t.Fatalf("Rounds = %d, want the ceiling 3 (that many productive rounds ran)", res.Rounds)
	}
}
