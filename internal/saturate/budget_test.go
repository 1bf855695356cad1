package saturate

import (
	"context"
	"errors"
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/parser"
)

func TestBudgetRuleLimitReturnsPartial(t *testing.T) {
	th := parser.MustParseTheory(exampleSeven)
	dat, stats, err := Datalog(th, Options{Budget: &budget.T{MaxRules: 4}})
	if !errors.Is(err, budget.ErrRuleLimit) {
		t.Fatalf("err = %v, want ErrRuleLimit", err)
	}
	if dat == nil || stats == nil {
		t.Fatal("budget exhaustion must return the partial closure and stats")
	}
	if stats.ClosureRules == 0 || stats.ClosureRules > 4 {
		t.Fatalf("partial closure has %d rules, want 1..4", stats.ClosureRules)
	}
	var be *budget.Error
	if !errors.As(err, &be) || be.Usage.Rules == 0 {
		t.Fatalf("error must carry a usage snapshot, got %v", err)
	}
}

func TestStepLimitTyped(t *testing.T) {
	th := parser.MustParseTheory(exampleSeven)
	_, _, err := Datalog(th, Options{Budget: &budget.T{MaxSteps: 2}})
	if !errors.Is(err, budget.ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
}

// Fault injection: cancel the saturation at every worklist checkpoint in
// turn; each canceled run must return a partial closure and a typed
// cancellation error, and the first uncanceled run must match an
// ungoverned reference run.
func TestFailAtEveryCheckpoint(t *testing.T) {
	th := parser.MustParseTheory(exampleSeven)
	ref, _, err := Datalog(th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; ; n++ {
		if n > 100_000 {
			t.Fatal("fault injection never ran to completion")
		}
		dat, stats, err := Datalog(th, Options{Budget: budget.FailAt(n)})
		if err == nil {
			if len(dat.Rules) != len(ref.Rules) {
				t.Fatalf("n=%d: governed run has %d rules, want %d", n, len(dat.Rules), len(ref.Rules))
			}
			break
		}
		if !errors.Is(err, budget.ErrCanceled) {
			t.Fatalf("n=%d: err = %v, want ErrCanceled", n, err)
		}
		if dat == nil || stats == nil {
			t.Fatalf("n=%d: canceled saturation must return partials", n)
		}
	}
}

func TestContextCancelStopsSaturation(t *testing.T) {
	th := parser.MustParseTheory(exampleSeven)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dat, _, err := Datalog(th, Options{Budget: &budget.T{Ctx: ctx}})
	if !errors.Is(err, budget.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled matching context.Canceled", err)
	}
	if dat == nil {
		t.Fatal("canceled saturation must return the partial theory")
	}
}

// The resumed path has the same checkpoints: every canceled extension
// returns its partial dat(Σ∪q) with a typed error, the first uncanceled
// one matches a from-scratch run, and the frozen base never changes.
func TestFailAtEveryCheckpointResumed(t *testing.T) {
	base := mustExtend(t, nil, exampleSeven, Options{})
	before := dump(base)
	ext := parser.MustParseTheory(exampleSeven + `
		B(X) -> exists Y. S(X,Y).
		D(X), A(X) -> Q(X).
	`)
	ref, _, err := NearlyGuardedToDatalog(ext, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; ; n++ {
		if n > 100_000 {
			t.Fatal("fault injection never ran to completion")
		}
		dat, cl, stats, err := Extend(base, ext, Options{Budget: budget.FailAt(n)})
		if dump(base) != before {
			t.Fatalf("n=%d: the resumed run mutated its base", n)
		}
		if err == nil {
			if !stats.Resumed || cl == nil {
				t.Fatalf("n=%d: run did not resume (%+v)", n, stats)
			}
			if len(dat.Rules) != len(ref.Rules) {
				t.Fatalf("n=%d: resumed run has %d rules, from scratch %d", n, len(dat.Rules), len(ref.Rules))
			}
			break
		}
		if !errors.Is(err, budget.ErrCanceled) {
			t.Fatalf("n=%d: err = %v, want ErrCanceled", n, err)
		}
		if dat == nil || stats == nil || cl != nil {
			t.Fatalf("n=%d: canceled resumed run must return partials and no closure", n)
		}
	}
}
