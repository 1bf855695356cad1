package chase

import (
	"context"
	"errors"
	"testing"
	"time"

	"guardedrules/internal/budget"
	"guardedrules/internal/database"
	"guardedrules/internal/parser"
)

// A non-terminating theory: every element spawns a successor, forever.
const infiniteTheory = `N(X) -> exists Y. E(X,Y). E(X,Y) -> N(Y).`

func TestBudgetFactLimitReturnsPartial(t *testing.T) {
	th := parser.MustParseTheory(infiniteTheory)
	d := database.FromAtoms(parser.MustParseFacts(`N(a).`))
	res, err := Run(th, d, Options{Budget: &budget.T{MaxFacts: 30}})
	if !errors.Is(err, budget.ErrFactLimit) {
		t.Fatalf("err = %v, want ErrFactLimit", err)
	}
	if res == nil || res.DB == nil {
		t.Fatal("budget exhaustion must return the partial result")
	}
	if !res.Truncated || !errors.Is(res.Reason, budget.ErrFactLimit) {
		t.Fatalf("Truncated=%v Reason=%v, want truncated ErrFactLimit", res.Truncated, res.Reason)
	}
	if res.DB.Len() < 30 {
		t.Fatalf("partial db has %d facts, want >= 30", res.DB.Len())
	}
	var be *budget.Error
	if !errors.As(err, &be) || be.Usage.Facts == 0 {
		t.Fatalf("error must carry a usage snapshot, got %v", err)
	}
}

func TestBudgetRoundAndStepLimits(t *testing.T) {
	th := parser.MustParseTheory(infiniteTheory)
	d := database.FromAtoms(parser.MustParseFacts(`N(a).`))
	if _, err := Run(th, d, Options{Budget: &budget.T{MaxRounds: 3}}); !errors.Is(err, budget.ErrRoundLimit) {
		t.Fatalf("MaxRounds err = %v, want ErrRoundLimit", err)
	}
	if _, err := Run(th, d, Options{Budget: &budget.T{MaxSteps: 4}}); !errors.Is(err, budget.ErrStepLimit) {
		t.Fatalf("MaxSteps err = %v, want ErrStepLimit", err)
	}
}

// The default ceilings are budget ceilings like any other: an ungoverned
// run of an infinite chase exhausts the 10,000-round default with a typed
// error and the partial result. MaxDepth alone stays the soft semantic
// bound: Truncated and Reason set, nil error.
func TestDefaultCeilingIsTypedDepthStaysSoft(t *testing.T) {
	th := parser.MustParseTheory(infiniteTheory)
	d := database.FromAtoms(parser.MustParseFacts(`N(a).`))
	res, err := Run(th, d, Options{})
	if !errors.Is(err, budget.ErrRoundLimit) {
		t.Fatalf("default-ceiling err = %v, want ErrRoundLimit", err)
	}
	if res == nil || !res.Truncated || res.Rounds != defaultMaxRounds {
		t.Fatalf("want the partial result after %d rounds, got %+v", defaultMaxRounds, res)
	}
	res, err = Run(th, d, Options{MaxDepth: 2})
	if err != nil {
		t.Fatalf("MaxDepth must not error, got %v", err)
	}
	if !res.Truncated || !errors.Is(res.Reason, budget.ErrDepthLimit) {
		t.Fatalf("Truncated=%v Reason=%v, want soft ErrDepthLimit", res.Truncated, res.Reason)
	}
}

func TestContextCancelStopsRun(t *testing.T) {
	th := parser.MustParseTheory(infiniteTheory)
	d := database.FromAtoms(parser.MustParseFacts(`N(a).`))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the run: the first checkpoint must observe it
	res, err := Run(th, d, Options{Budget: &budget.T{Ctx: ctx}})
	if !errors.Is(err, budget.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled matching context.Canceled", err)
	}
	if res == nil || res.DB == nil {
		t.Fatal("canceled run must still return the partial result")
	}
}

func TestDeadlineStopsRun(t *testing.T) {
	th := parser.MustParseTheory(infiniteTheory)
	d := database.FromAtoms(parser.MustParseFacts(`N(a).`))
	res, err := Run(th, d, Options{Budget: &budget.T{Timeout: time.Nanosecond}})
	if !errors.Is(err, budget.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if res == nil || !errors.Is(res.Reason, budget.ErrDeadline) {
		t.Fatalf("result must record the deadline reason, got %+v", res)
	}
}

// Fault injection: cancel the chase at every checkpoint in turn. Each
// canceled run must return a well-formed partial result and a typed
// cancellation error; once n exceeds the total checkpoint count the run
// completes and must be byte-identical to an ungoverned run.
func TestFailAtEveryCheckpoint(t *testing.T) {
	th := parser.MustParseTheory(sigmaP)
	facts := parser.MustParseFacts(exampleDB)
	full, err := Run(th, database.FromAtoms(facts), Options{})
	if err != nil || !full.Saturated {
		t.Fatalf("reference run failed: %v", err)
	}
	for n := 1; ; n++ {
		if n > 10_000 {
			t.Fatal("fault injection never ran to completion")
		}
		res, err := Run(th, database.FromAtoms(facts), Options{Budget: budget.FailAt(n)})
		if err == nil {
			if !res.Saturated {
				t.Fatalf("n=%d: uncanceled run must saturate", n)
			}
			if res.DB.Len() != full.DB.Len() {
				t.Fatalf("n=%d: completed run has %d facts, want %d", n, res.DB.Len(), full.DB.Len())
			}
			break
		}
		if !errors.Is(err, budget.ErrCanceled) {
			t.Fatalf("n=%d: err = %v, want ErrCanceled", n, err)
		}
		if res == nil || res.DB == nil || !res.Truncated {
			t.Fatalf("n=%d: canceled run must return a truncated partial result", n)
		}
		// Soundness of the partial: every fact is in the full chase too
		// (modulo null renaming; ground facts suffice here).
		for _, a := range res.DB.UserFacts() {
			if a.IsGround() && !full.DB.Has(a) {
				t.Fatalf("n=%d: partial contains ground fact %v absent from full run", n, a)
			}
		}
	}
}

// The budget threads through RunTree and RunWithProvenance as well.
func TestBudgetThroughTreeAndProvenance(t *testing.T) {
	th := parser.MustParseTheory(`A(X) -> exists Y. R(X,Y). R(X,Y) -> A(Y).`)
	d := database.FromAtoms(parser.MustParseFacts(`A(c).`))
	if _, _, err := RunTree(th, d, Options{Budget: &budget.T{MaxRounds: 2}}); !errors.Is(err, budget.ErrRoundLimit) {
		t.Fatalf("RunTree err = %v, want ErrRoundLimit", err)
	}
	if _, _, err := RunWithProvenance(th, d, Options{Budget: &budget.T{MaxRounds: 2}}); !errors.Is(err, budget.ErrRoundLimit) {
		t.Fatalf("RunWithProvenance err = %v, want ErrRoundLimit", err)
	}
}

// A truncated chase is a sound under-approximation: the answers it
// supports are a subset of the saturated run's.
func TestTruncatedAnswersAreSubset(t *testing.T) {
	th := parser.MustParseTheory(sigmaP)
	facts := parser.MustParseFacts(exampleDB)
	full, err := Run(th, database.FromAtoms(facts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	part, err := Run(th, database.FromAtoms(facts), Options{Budget: &budget.T{MaxFacts: full.DB.Len() - 2}})
	if err != nil && !errors.Is(err, budget.ErrFactLimit) {
		t.Fatal(err)
	}
	if !part.Truncated {
		t.Skip("truncation budget did not bind")
	}
	for _, a := range part.DB.UserFacts() {
		if a.IsGround() && !full.DB.Has(a) {
			t.Fatalf("truncated run derived %v, absent from the full chase", a)
		}
	}
}
