package budget

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestSentinelMatching(t *testing.T) {
	tr := Start(&T{MaxFacts: 10})
	defer tr.Stop()
	tr.AddFacts(10)
	tr.AddRules(3)
	err := tr.Exhausted(ErrFactLimit)
	if !errors.Is(err, ErrFactLimit) {
		t.Fatalf("errors.Is(err, ErrFactLimit) = false for %v", err)
	}
	if errors.Is(err, ErrRuleLimit) {
		t.Fatalf("fact-limit error must not match ErrRuleLimit")
	}
	var be *Error
	if !errors.As(err, &be) {
		t.Fatalf("errors.As(*Error) failed for %v", err)
	}
	if be.Usage.Facts != 10 || be.Usage.Rules != 3 {
		t.Fatalf("usage snapshot = %+v, want Facts=10 Rules=3", be.Usage)
	}
	if !IsBudget(err) {
		t.Fatalf("IsBudget(%v) = false", err)
	}
	if IsBudget(errors.New("unrelated")) {
		t.Fatalf("IsBudget matched an unrelated error")
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tr := Start(&T{Ctx: ctx})
	defer tr.Stop()
	if err := tr.Check(); err != nil {
		t.Fatalf("pre-cancel Check() = %v, want nil", err)
	}
	cancel()
	err := tr.Check()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("post-cancel Check() = %v, want ErrCanceled", err)
	}
	// Context-aware callers match the standard sentinel too.
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ErrCanceled error must also match context.Canceled")
	}
	if !tr.Canceled() {
		t.Fatalf("Canceled() = false after cancel")
	}
}

func TestDeadline(t *testing.T) {
	tr := Start(&T{Timeout: time.Nanosecond})
	defer tr.Stop()
	deadline := time.Now().Add(2 * time.Second)
	var err error
	for time.Now().Before(deadline) {
		if err = tr.Check(); err != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("Check() after timeout = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ErrDeadline error must also match context.DeadlineExceeded")
	}
}

func TestFailAtInjection(t *testing.T) {
	tr := Start(FailAt(3))
	defer tr.Stop()
	for i := 1; i <= 2; i++ {
		if err := tr.Check(); err != nil {
			t.Fatalf("checkpoint %d: unexpected %v", i, err)
		}
	}
	err := tr.Check()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("checkpoint 3: got %v, want injected ErrCanceled", err)
	}
	// The injection is sticky: later checkpoints stay canceled.
	if err := tr.Check(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("checkpoint 4: got %v, want ErrCanceled", err)
	}
	if tr.Checkpoints() != 4 {
		t.Fatalf("Checkpoints() = %d, want 4", tr.Checkpoints())
	}
}

func TestNilBudgetTracker(t *testing.T) {
	tr := Start(nil)
	defer tr.Stop()
	for i := 0; i < 100; i++ {
		if err := tr.Check(); err != nil {
			t.Fatalf("nil-budget Check() = %v", err)
		}
	}
	if tr.Canceled() {
		t.Fatalf("nil-budget tracker reports canceled")
	}
	tr.AddSteps(7)
	tr.SetRounds(2)
	u := tr.Usage()
	if u.Steps != 7 || u.Rounds != 2 {
		t.Fatalf("usage = %+v, want Steps=7 Rounds=2", u)
	}
}

func TestCapResolution(t *testing.T) {
	maxFacts := func(b *T) int { return b.MaxFacts }
	if got := Cap(nil, maxFacts, 500); got != 500 {
		t.Fatalf("Cap(nil) = %d, want default 500", got)
	}
	if got := Cap(&T{}, maxFacts, 500); got != 500 {
		t.Fatalf("Cap(zero budget) = %d, want default 500", got)
	}
	if got := Cap(&T{MaxFacts: 7}, maxFacts, 500); got != 7 {
		t.Fatalf("Cap(MaxFacts=7) = %d, want 7", got)
	}
}

func TestWithFailAt(t *testing.T) {
	b := T{MaxFacts: 9}
	fb := b.WithFailAt(2)
	if fb.MaxFacts != 9 || fb.FailAtCheckpoint != 2 {
		t.Fatalf("WithFailAt = %+v", fb)
	}
	if b.FailAtCheckpoint != 0 {
		t.Fatalf("WithFailAt mutated the receiver")
	}
}
