package datalog

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"guardedrules/internal/budget"
	"guardedrules/internal/database"
	"guardedrules/internal/parser"
)

// chainTheoryAndFacts builds transitive closure over an n-node chain: the
// fixpoint takes Θ(log n) rounds with Θ(n²) facts, enough work for many
// checkpoints mid-stratum.
func chainTheoryAndFacts(n int) (string, string) {
	th := `
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "E(c%d,c%d). ", i, i+1)
	}
	return th, sb.String()
}

func dump(d *database.Database) string {
	facts := d.UserFacts()
	lines := make([]string, len(facts))
	for i, a := range facts {
		lines[i] = a.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// The evaluator must observe cancellation mid-stratum, return a sound
// partial fixpoint, and leave no goroutine behind; the non-canceled
// re-run must be byte-identical to an ungoverned run.
func TestCancellationNoLeak(t *testing.T) {
	thSrc, factSrc := chainTheoryAndFacts(48)
	th := parser.MustParseTheory(thSrc)
	facts := parser.MustParseFacts(factSrc)

	full, err := EvalSemiNaiveOpts(th, database.FromAtoms(facts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := dump(full)

	before := runtime.NumGoroutine()
	sawCancel := false
	for n := 1; ; n += 7 { // stride keeps the sweep fast; still hits many interleavings
		if n > 100_000 {
			t.Fatal("fault injection never ran to completion")
		}
		db, err := EvalSemiNaiveOpts(th, database.FromAtoms(facts),
			Options{Budget: budget.FailAt(n)})
		if err == nil {
			if got := dump(db); got != want {
				t.Fatalf("n=%d: completed governed run differs from reference\ngot  %d facts\nwant %d facts",
					n, db.Len(), full.Len())
			}
			break
		}
		sawCancel = true
		if !errors.Is(err, budget.ErrCanceled) {
			t.Fatalf("n=%d: err = %v, want ErrCanceled", n, err)
		}
		if db == nil {
			t.Fatalf("n=%d: canceled eval must return the partial database", n)
		}
		// Partial soundness: completed rounds only, so every fact is in
		// the full fixpoint.
		for _, a := range db.UserFacts() {
			if !full.Has(a) {
				t.Fatalf("n=%d: partial contains %v, absent from fixpoint", n, a)
			}
		}
	}
	if !sawCancel {
		t.Fatal("sweep never observed a mid-run cancellation; injection broken")
	}

	// Allow the runtime a moment to retire exiting goroutines, then
	// require the count back at (or below) the pre-test level.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}

	// Byte-identical non-canceled re-run.
	again, err := EvalSemiNaiveOpts(th, database.FromAtoms(facts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dump(again) != want {
		t.Fatal("re-run after cancellation sweep differs from reference")
	}
}

func TestEvalBudgetCeilings(t *testing.T) {
	thSrc, factSrc := chainTheoryAndFacts(24)
	th := parser.MustParseTheory(thSrc)
	d := database.FromAtoms(parser.MustParseFacts(factSrc))

	db, err := EvalSemiNaiveOpts(th, d, Options{Budget: &budget.T{MaxRounds: 1}})
	if !errors.Is(err, budget.ErrRoundLimit) {
		t.Fatalf("MaxRounds err = %v, want ErrRoundLimit", err)
	}
	if db == nil || db.Len() < d.Len() {
		t.Fatal("round-limited eval must return the partial database")
	}

	db, err = EvalSemiNaiveOpts(th, d, Options{Budget: &budget.T{MaxFacts: 10}})
	if !errors.Is(err, budget.ErrFactLimit) {
		t.Fatalf("MaxFacts err = %v, want ErrFactLimit", err)
	}
	if db == nil {
		t.Fatal("fact-limited eval must return the partial database")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EvalSemiNaiveOpts(th, d, Options{Budget: &budget.T{Ctx: ctx}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx err = %v, want context.Canceled match", err)
	}
}
