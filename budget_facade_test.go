package guardedrules

import (
	"context"
	"errors"
	"testing"
	"time"
)

// The facade re-exports the budget surface; a governed chase of a
// non-terminating theory must come back partial with a typed sentinel.
func TestFacadeBudgetedChase(t *testing.T) {
	th, err := ParseTheory(`
		N(X) -> exists Y. E(X,Y).
		E(X,Y) -> N(Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	facts, err := ParseFacts("N(a).")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ChaseCtx(context.Background(), th, NewDatabase(facts...), Options{MaxFacts: 10})
	if !errors.Is(err, ErrFactLimit) {
		t.Fatalf("err = %v, want ErrFactLimit", err)
	}
	if !IsBudgetError(err) {
		t.Fatal("IsBudgetError must recognize the sentinel")
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Usage.Facts == 0 {
		t.Fatalf("error must carry a usage snapshot, got %v", err)
	}
	if res == nil || !res.Truncated || res.DB.Len() == 0 {
		t.Fatalf("budgeted chase must return the partial database, got %+v", res)
	}
}

func TestFacadeChaseDeadline(t *testing.T) {
	th, err := ParseTheory("N(X) -> exists Y. E(X,Y). E(X,Y) -> N(Y).")
	if err != nil {
		t.Fatal(err)
	}
	facts, _ := ParseFacts("N(a).")
	_, err = ChaseCtx(context.Background(), th, NewDatabase(facts...), Options{Timeout: time.Nanosecond})
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadline matching context.DeadlineExceeded", err)
	}
}

func TestFacadeBudgetedTranslation(t *testing.T) {
	th, err := ParseTheory(`
		R(X,Y), S(Y) -> exists Z. R(Y,Z).
		R(X,Y) -> S(Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := GuardedToDatalogCtx(context.Background(), th, Options{MaxRules: 2})
	if !errors.Is(err, ErrRuleLimit) {
		t.Fatalf("err = %v, want ErrRuleLimit", err)
	}
	if out == nil || len(out.Rules) == 0 {
		t.Fatal("exhausted translation must return the partial theory")
	}
}

// Panics escaping an engine surface as errors at the facade boundary.
func TestRecoverBoundary(t *testing.T) {
	f := func() (err error) {
		defer recoverToError(&err)
		panic("boom")
	}
	err := f()
	if err == nil || !errors.Is(err, err) { // non-nil, usable error
		t.Fatalf("panic must convert to an error, got %v", err)
	}
	if got := err.Error(); got != "guardedrules: internal panic: boom" {
		t.Fatalf("unexpected message %q", got)
	}
}
