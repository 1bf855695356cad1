package rewrite

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"guardedrules/internal/budget"
	"guardedrules/internal/normalize"
	"guardedrules/internal/parser"
)

func TestBudgetRuleLimitReturnsPartialExpansion(t *testing.T) {
	th := normalize.Normalize(parser.MustParseTheory(sigmaP))
	ex, stats, err := Expand(th, Options{Budget: &budget.T{MaxRules: 10}})
	if !errors.Is(err, budget.ErrRuleLimit) {
		t.Fatalf("err = %v, want ErrRuleLimit", err)
	}
	if ex == nil || len(ex.Rules) == 0 || len(ex.Rules) > 10 {
		t.Fatalf("partial expansion must hold the rules emitted so far, got %v", ex)
	}
	if stats == nil || stats.ExpansionRules != len(ex.Rules) {
		t.Fatalf("stats must describe the partial expansion, got %+v", stats)
	}
}

// Rewrite post-processes the partial expansion on budget exhaustion: the
// returned theory is still nearly guarded over the partial rule set.
func TestRewritePropagatesPartial(t *testing.T) {
	th := normalize.Normalize(parser.MustParseTheory(sigmaP))
	rew, _, err := Rewrite(th, Options{Budget: &budget.T{MaxRules: 10}})
	if !errors.Is(err, budget.ErrRuleLimit) {
		t.Fatalf("err = %v, want ErrRuleLimit", err)
	}
	if rew == nil || len(rew.Rules) == 0 {
		t.Fatal("Rewrite must return the post-processed partial expansion")
	}
}

// Fault injection: cancel the expansion at every worklist checkpoint.
func TestFailAtEveryCheckpoint(t *testing.T) {
	th := normalize.Normalize(parser.MustParseTheory(sigmaP))
	ref, _, err := Expand(th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; ; n++ {
		if n > 100_000 {
			t.Fatal("fault injection never ran to completion")
		}
		ex, _, err := Expand(th, Options{Budget: budget.FailAt(n)})
		if err == nil {
			if len(ex.Rules) != len(ref.Rules) {
				t.Fatalf("n=%d: governed run has %d rules, want %d", n, len(ex.Rules), len(ref.Rules))
			}
			break
		}
		if !errors.Is(err, budget.ErrCanceled) {
			t.Fatalf("n=%d: err = %v, want ErrCanceled", n, err)
		}
		if ex == nil {
			t.Fatalf("n=%d: canceled expansion must return partial theory", n)
		}
	}
}

func TestContextCancelStopsExpansion(t *testing.T) {
	th := normalize.Normalize(parser.MustParseTheory(sigmaP))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex, _, err := Expand(th, Options{Budget: &budget.T{Ctx: ctx}})
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if ex == nil {
		t.Fatal("canceled expansion must return the partial theory")
	}
}

// One rule can have hundreds of thousands of selections: the four-atom
// ternary chain has 425,100, the eight-atom binary chain 81,036. A
// deadline must stop the expansion inside such a rule, promptly and
// before it has allocated much.
func TestDeadlineStopsInsideOneRule(t *testing.T) {
	for _, src := range []string{
		`R(X1,X2,X3), R(X3,X4,X5), R(X5,X6,X7), R(X7,X8,X9) -> P(X1).`,
		`R(X1,X2), R(X2,X3), R(X3,X4), R(X4,X5), R(X5,X6), R(X6,X7), R(X7,X8), R(X8,X9) -> P(X1).`,
	} {
		th := normalize.Normalize(parser.MustParseTheory(src))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, _, err := Rewrite(th, Options{Budget: &budget.T{Timeout: 50 * time.Millisecond}})
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		var be *budget.Error
		if !errors.Is(err, budget.ErrDeadline) || !errors.As(err, &be) {
			t.Fatalf("%s: err = %v, want a *budget.Error wrapping ErrDeadline", src, err)
		}
		if elapsed > 300*time.Millisecond {
			t.Errorf("%s: returned after %v, want within 250ms of the 50ms deadline", src, elapsed)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
			t.Errorf("%s: allocated %d MB, want under 64 MB", src, alloc>>20)
		}
	}
}
