package datalog

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"guardedrules/internal/budget"
	"guardedrules/internal/database"
	"guardedrules/internal/parser"
)

// A panic inside an evaluation (injected deterministically at a budget
// checkpoint — Check runs at every merge point and work item) must come
// back as a typed per-request error, never escape to the caller or kill
// the process, leave the database a sound partial fixpoint, and leak
// zero goroutines. Run under -race in CI.
func TestEvalPanicContained(t *testing.T) {
	thSrc, factSrc := chainTheoryAndFacts(32)
	th := parser.MustParseTheory(thSrc)
	facts := parser.MustParseFacts(factSrc)

	full, err := EvalSemiNaiveOpts(th, database.FromAtoms(facts), Options{})
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	sawPanic := false
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		db, err := EvalSemiNaiveOpts(th, database.FromAtoms(facts),
			Options{Budget: budget.PanicAt(n)})
		if err == nil {
			continue // checkpoint n beyond the run's total; nothing injected
		}
		sawPanic = true
		var pe *budget.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("n=%d: err = %v, want a contained *budget.PanicError", n, err)
		}
		if _, ok := pe.Value.(budget.InjectedPanic); !ok {
			t.Fatalf("n=%d: recovered value %v, want budget.InjectedPanic", n, pe.Value)
		}
		if db == nil {
			t.Fatalf("n=%d: panicked eval must still return the partial database", n)
		}
		for _, a := range db.UserFacts() {
			if !full.Has(a) {
				t.Fatalf("n=%d: partial contains %v, absent from fixpoint", n, a)
			}
		}
	}
	if !sawPanic {
		t.Fatal("sweep never triggered an injected panic")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after panic containment: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The engine stays healthy after contained panics: a clean re-run is
	// byte-identical to the reference.
	again, err := EvalSemiNaiveOpts(th, database.FromAtoms(facts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dump(again) != dump(full) {
		t.Fatal("re-run after panic sweep differs from reference")
	}
}
