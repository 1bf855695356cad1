package chase

import (
	"errors"
	"runtime"
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/database"
	"guardedrules/internal/parser"
)

// A panic injected at a chase checkpoint is contained at the engine
// boundary: Run returns a typed *budget.PanicError instead of crashing the
// caller, leaves no goroutine behind, and a clean re-run still saturates.
func TestChasePanicContained(t *testing.T) {
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y) -> B(Y).
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`)
	facts := parser.MustParseFacts("A(a). E(a,b). E(b,c). E(c,d).")

	before := runtime.NumGoroutine()
	sawPanic := false
	for _, n := range []int{1, 2, 3, 5, 8} {
		res, err := Run(th, database.FromAtoms(facts), Options{Budget: budget.PanicAt(n)})
		if err == nil {
			continue // injection point beyond the run's checkpoints
		}
		sawPanic = true
		var pe *budget.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("n=%d: err = %v, want contained *budget.PanicError", n, err)
		}
		if _, ok := pe.Value.(budget.InjectedPanic); !ok {
			t.Fatalf("n=%d: recovered value %v, want budget.InjectedPanic", n, pe.Value)
		}
		if res != nil {
			t.Fatalf("n=%d: panicked chase must not return a result (the working db may be half-applied)", n)
		}
	}
	if !sawPanic {
		t.Fatal("sweep never triggered an injected panic")
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak after panic containment: %d before, %d after", before, after)
	}

	res, err := Run(th, database.FromAtoms(facts), Options{})
	if err != nil || !res.Saturated {
		t.Fatalf("clean re-run after panic sweep: res=%+v err=%v", res, err)
	}
}
