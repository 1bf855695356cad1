package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func never() bool { return false }

// Every unit runs exactly once at any worker count, panic-free.
func TestRunUnitsCompletes(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		const n = 100
		var ran [n]atomic.Int32
		if err := RunUnits(n, workers, never, func(u int) { ran[u].Add(1) }); err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		for u := range ran {
			if got := ran[u].Load(); got != 1 {
				t.Fatalf("workers=%d: unit %d ran %d times", workers, u, got)
			}
		}
	}
}

// A panicking unit is contained: RunUnits returns a typed *PanicError
// carrying the unit, value and stack, the pool drains (no goroutine
// leaks), and the panic never escapes to the caller's goroutine.
func TestRunUnitsPanicContainment(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, bad := range []int{0, 3, 7} {
			err := RunUnits(8, workers, never, func(u int) {
				if u == bad {
					panic(fmt.Sprintf("boom-%d", u))
				}
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("workers=%d bad=%d: err = %v, want *PanicError", workers, bad, err)
			}
			if pe.Unit != bad || pe.Value != fmt.Sprintf("boom-%d", bad) {
				t.Fatalf("workers=%d: PanicError = %+v", workers, pe)
			}
			if !strings.Contains(string(pe.Stack), "par_test") {
				t.Fatalf("stack must point at the panicking frame:\n%s", pe.Stack)
			}
		}
	}
}

// After a panic, workers stop claiming fresh units (the pool sheds the
// rest of the round exactly as on cancellation). Units other than the
// panicking one block until the panic is published, so the outcome does
// not depend on scheduling: every worker polls canceled once before each
// claim, the non-panicking workers are parked inside their first unit,
// and so the (workers+1)-th poll is the panicking worker's next loop
// iteration, which runs only after its recover published the panic.
func TestRunUnitsPanicStopsClaiming(t *testing.T) {
	const n, workers = 10_000, 4
	var polls, ran atomic.Int32
	published := make(chan struct{})
	canceled := func() bool {
		if polls.Add(1) == workers+1 {
			close(published)
		}
		return false
	}
	err := RunUnits(n, workers, canceled, func(u int) {
		if u == 0 {
			panic("early")
		}
		select {
		case <-published:
		case <-time.After(10 * time.Second):
			t.Error("panic never published: the panicking worker did not poll again")
		}
		ran.Add(1)
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v", err)
	}
	// Only the units claimed before the panic was published may run: at
	// most one per non-panicking worker.
	if got := ran.Load(); got >= workers {
		t.Fatalf("%d units ran after an immediate panic: pool did not shed", got)
	}
}

// The sequential path (workers=1) contains panics identically.
func TestRunUnitsPanicSequential(t *testing.T) {
	var ran int
	err := RunUnits(5, 1, never, func(u int) {
		if u == 2 {
			panic("seq")
		}
		ran++
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Unit != 2 {
		t.Fatalf("err = %v", err)
	}
	if ran != 2 {
		t.Fatalf("units after the panic ran: %d", ran)
	}
}

// Panic containment leaks no goroutines: the pool always drains.
func TestRunUnitsPanicNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		_ = RunUnits(32, 8, never, func(u int) {
			if u%5 == 0 {
				panic(u)
			}
		})
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after panic storm", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Cancellation still drains cleanly and reports no error.
func TestRunUnitsCanceled(t *testing.T) {
	var calls atomic.Int32
	canceled := func() bool { return calls.Load() >= 3 }
	if err := RunUnits(1000, 2, canceled, func(u int) { calls.Add(1) }); err != nil {
		t.Fatalf("cancellation must not be an error: %v", err)
	}
	if calls.Load() == 1000 {
		t.Fatal("cancellation did not shed units")
	}
}
