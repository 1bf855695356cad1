package capture

import (
	"context"
	"errors"
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/tm"
)

func TestBudgetRuleLimitReturnsPartialCompilation(t *testing.T) {
	alpha := []string{"zero", "one"}
	m := tm.EvenCount("one", alpha)
	th, err := CompileOpts(m, 1, alpha, Options{Budget: &budget.T{MaxRules: 5}})
	if !errors.Is(err, budget.ErrRuleLimit) {
		t.Fatalf("err = %v, want ErrRuleLimit", err)
	}
	if th == nil || len(th.Rules) == 0 || len(th.Rules) > 5 {
		t.Fatalf("partial compilation must hold the rules emitted so far, got %v", th)
	}
}

// Fault injection: cancel the compilation at every per-rule checkpoint.
func TestFailAtEveryCheckpoint(t *testing.T) {
	alpha := []string{"zero", "one"}
	m := tm.EvenCount("one", alpha)
	ref, err := Compile(m, 1, alpha)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; ; n++ {
		if n > 100_000 {
			t.Fatal("fault injection never ran to completion")
		}
		th, err := CompileOpts(m, 1, alpha, Options{Budget: budget.FailAt(n)})
		if err == nil {
			if len(th.Rules) != len(ref.Rules) {
				t.Fatalf("n=%d: governed run has %d rules, want %d", n, len(th.Rules), len(ref.Rules))
			}
			break
		}
		if !errors.Is(err, budget.ErrCanceled) {
			t.Fatalf("n=%d: err = %v, want ErrCanceled", n, err)
		}
		if th == nil {
			t.Fatalf("n=%d: canceled compilation must return partial theory", n)
		}
	}
}

func TestContextCancelStopsCompilation(t *testing.T) {
	alpha := []string{"zero", "one"}
	m := tm.EvenCount("one", alpha)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	th, err := CompileOpts(m, 1, alpha, Options{Budget: &budget.T{Ctx: ctx}})
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if th == nil {
		t.Fatal("canceled compilation must return the partial theory")
	}
}
