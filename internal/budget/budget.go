// Package budget is the unified resource-governance layer of the
// reproduction's fixpoint and expansion engines.
//
// Every engine in this repository runs a potentially explosive
// construction: the chase need not terminate at all, the
// frontier-guarded expansion ex(Σ) is single-exponential by design
// (Theorem 1 of the paper), and the guarded saturation Ξ(Σ) is
// double-exponential (Theorem 3). A budget turns those blow-ups into
// governed, observable failures instead of runaway processes:
//
//   - T declares what a run may consume: a cancellation context, a
//     wall-clock timeout, and fact/rule/round/step ceilings.
//   - Tracker is the runtime side: engines bump its counters as they
//     derive facts, emit rules and complete rounds, and poll Check at
//     their checkpoints (typically once per round or work item).
//   - On exhaustion the engine returns the partial result computed so
//     far alongside a typed *Error that wraps one of the sentinel
//     reasons below and a Usage snapshot, so callers can both degrade
//     gracefully and report precisely what was spent.
//
// The FailAt constructor provides deterministic fault injection: a
// budget that cancels itself at the nth checkpoint, used by the engine
// shutdown tests to prove clean cancellation (no goroutine leaks, no
// lost wake-ups) at every interleaving point.
package budget

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Sentinel reasons for budget exhaustion. Engine errors wrap exactly one
// of these; match with errors.Is(err, budget.Err...).
var (
	// ErrCanceled reports that the run's context was canceled (including
	// injected FailAt cancellations). errors.Is also matches
	// context.Canceled.
	ErrCanceled = errors.New("budget: run canceled")
	// ErrDeadline reports that the wall-clock deadline passed.
	// errors.Is also matches context.DeadlineExceeded.
	ErrDeadline = errors.New("budget: deadline exceeded")
	// ErrFactLimit reports that a fact ceiling was hit (the chase budget
	// against non-terminating fixpoints).
	ErrFactLimit = errors.New("budget: fact limit exceeded")
	// ErrRuleLimit reports that a rule ceiling was hit (the expansion and
	// saturation budgets against the exponential translations).
	ErrRuleLimit = errors.New("budget: rule limit exceeded")
	// ErrRoundLimit reports that a fixpoint round ceiling was hit.
	ErrRoundLimit = errors.New("budget: round limit exceeded")
	// ErrStepLimit reports that a step ceiling was hit (trigger
	// applications in the chase, inference applications in saturation).
	ErrStepLimit = errors.New("budget: step limit exceeded")
	// ErrDepthLimit reports that the chase null-depth bound truncated the
	// run. Depth truncation is a semantic under-approximation bound, not
	// a resource failure: chase runs record it as the truncation Reason
	// without returning an error.
	ErrDepthLimit = errors.New("budget: null-depth limit reached")
)

// sentinels lists every exhaustion reason, for IsBudget.
var sentinels = []error{
	ErrCanceled, ErrDeadline, ErrFactLimit, ErrRuleLimit,
	ErrRoundLimit, ErrStepLimit, ErrDepthLimit,
}

// IsBudget reports whether err is (or wraps) any budget sentinel: a
// governed exhaustion rather than an input or internal error. Callers
// use it to decide whether a returned partial result is meaningful.
func IsBudget(err error) bool {
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// Usage is a snapshot of the work a run had performed when a budget
// error fired (or, via Tracker.Usage, at any point during the run).
type Usage struct {
	// Facts is the number of facts derived (database insertions observed
	// by the engine, not counting the input).
	Facts int
	// Rules is the number of rules emitted (expansion / saturation
	// output, or rules fired where no rules are emitted).
	Rules int
	// Rounds is the number of fixpoint rounds completed.
	Rounds int
	// Steps counts elementary engine steps: trigger applications in the
	// chase, inference applications in saturation.
	Steps int
	// Elapsed is the wall-clock time since the tracker started.
	Elapsed time.Duration
}

// Error is a typed budget-exhaustion error: a sentinel Reason plus the
// Usage at the moment it fired. errors.Is(err, target) matches the
// Reason, and additionally context.Canceled / context.DeadlineExceeded
// for the cancellation reasons, so context-aware callers need no
// special cases.
type Error struct {
	Reason error
	Usage  Usage
}

func (e *Error) Error() string {
	return fmt.Sprintf("%v (facts=%d rules=%d rounds=%d steps=%d elapsed=%s)",
		e.Reason, e.Usage.Facts, e.Usage.Rules, e.Usage.Rounds, e.Usage.Steps,
		e.Usage.Elapsed.Round(time.Microsecond))
}

// Unwrap exposes the sentinel reason to errors.Is / errors.As chains.
func (e *Error) Unwrap() error { return e.Reason }

// Is extends matching to the standard context errors.
func (e *Error) Is(target error) bool {
	if target == e.Reason {
		return true
	}
	switch e.Reason {
	case ErrCanceled:
		return target == context.Canceled
	case ErrDeadline:
		return target == context.DeadlineExceeded
	}
	return false
}

// T declares the resource budget of one engine run, and is the only place
// a fact, rule, round or step ceiling can be set. The zero value (and a
// nil *T) means "engine defaults": no context, no deadline, and each
// engine's default ceilings (DESIGN.md §6 tabulates them). Hitting any
// ceiling, explicit or default, returns the partial result with a typed
// *Error.
type T struct {
	// Ctx is the cancellation source; nil means context.Background().
	// Cancel it to stop the run with ErrCanceled and a partial result.
	Ctx context.Context
	// Timeout is the wall-clock budget; 0 means none. Exceeding it stops
	// the run with ErrDeadline and a partial result.
	Timeout time.Duration
	// MaxFacts caps derived facts (0 = engine default): ErrFactLimit.
	MaxFacts int
	// MaxRules caps emitted rules (0 = engine default): ErrRuleLimit.
	MaxRules int
	// MaxRounds caps fixpoint rounds (0 = engine default): ErrRoundLimit.
	MaxRounds int
	// MaxSteps caps elementary steps (0 = engine default): ErrStepLimit.
	MaxSteps int
	// FailAtCheckpoint injects a cancellation once the run's checkpoint
	// counter reaches this value (0 = off). Deterministic fault
	// injection for shutdown tests; see FailAt.
	FailAtCheckpoint int64
	// PanicAtCheckpoint injects a panic (an InjectedPanic value) at
	// exactly the nth checkpoint (0 = off). Deterministic fault injection
	// for the panic-containment layers: the recover at each engine entry
	// (datalog Program.Eval and Maintained.Apply, the chase run) turns it
	// into a *PanicError, and the HTTP recovery middleware catches the
	// ones raised outside an engine.
	PanicAtCheckpoint int64
}

// FailAt returns a budget that cancels itself at the nth checkpoint of
// the run. Tests iterate n over 1..total-checkpoints to exercise clean
// shutdown at every interleaving point.
func FailAt(n int) *T { return &T{FailAtCheckpoint: int64(n)} }

// PanicAt returns a budget that panics at exactly the nth checkpoint of
// the run, for driving the panic-containment layers deterministically.
func PanicAt(n int) *T { return &T{PanicAtCheckpoint: int64(n)} }

// InjectedPanic is the value thrown by a PanicAt budget, distinctive so
// containment tests can assert the recovered panic is the injected one.
type InjectedPanic struct {
	// Checkpoint is the checkpoint counter value that fired the panic.
	Checkpoint int64
}

func (p InjectedPanic) String() string {
	return fmt.Sprintf("budget: injected panic at checkpoint %d", p.Checkpoint)
}

// PanicError is an engine panic converted into a value: the engines run
// untrusted-adjacent work (user theories through compiled join plans),
// where a raw panic would kill the whole process rather than the one
// request that triggered it. Each engine entry recovers and returns it,
// and the caller surfaces it as a per-request failure.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recover.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("budget: engine panic: %v", e.Value)
}

// WithFailAt returns a copy of b that additionally cancels at the nth
// checkpoint.
func (b T) WithFailAt(n int) *T {
	b.FailAtCheckpoint = int64(n)
	return &b
}

// Cap resolves an effective ceiling: the budget's own max when set,
// otherwise the engine's default def. Nil-safe.
func Cap(b *T, budgetMax func(*T) int, def int) int {
	if b != nil {
		if m := budgetMax(b); m > 0 {
			return m
		}
	}
	return def
}

// Tracker is the runtime state of a budget-governed run: atomic usage
// counters, a checkpoint counter, and the derived cancellation context.
// All methods are safe for concurrent use.
//
// Engines create one with Start at the top of a run, defer Stop, bump
// the counters as they work, and poll Check at every checkpoint.
type Tracker struct {
	spec        T
	ctx         context.Context
	cancel      context.CancelFunc
	start       time.Time
	checkpoints atomic.Int64
	facts       atomic.Int64
	rules       atomic.Int64
	rounds      atomic.Int64
	steps       atomic.Int64
}

// Start begins tracking budget b. A nil b yields a tracker that only
// counts usage: Check never fails and costs one atomic add. Callers
// must Stop the tracker when the run ends to release the deadline
// timer.
func Start(b *T) *Tracker {
	tr := &Tracker{start: time.Now()}
	if b == nil {
		return tr
	}
	tr.spec = *b
	if b.Ctx != nil || b.Timeout > 0 || b.FailAtCheckpoint > 0 {
		ctx := b.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		if b.Timeout > 0 {
			tr.ctx, tr.cancel = context.WithTimeout(ctx, b.Timeout)
		} else {
			tr.ctx, tr.cancel = context.WithCancel(ctx)
		}
	}
	return tr
}

// Stop releases the tracker's context resources. Idempotent; safe on
// nil trackers and trackers started from a nil budget.
func (tr *Tracker) Stop() {
	if tr != nil && tr.cancel != nil {
		tr.cancel()
	}
}

// Check is the engine checkpoint: it increments the checkpoint counter,
// fires a FailAt injection when due, and reports cancellation or
// deadline expiry as a typed *Error carrying the current usage. It
// never blocks; a nil error means the run may proceed.
// All Tracker methods are safe on a nil receiver (a nil tracker counts
// nothing and never cancels), so engine internals can be exercised
// without wiring a budget.
func (tr *Tracker) Check() error {
	if tr == nil {
		return nil
	}
	n := tr.checkpoints.Add(1)
	// The == makes the injection one-shot: exactly one goroutine observes
	// the matching counter value, so exactly one panic fires per run.
	if pa := tr.spec.PanicAtCheckpoint; pa > 0 && n == pa {
		panic(InjectedPanic{Checkpoint: n})
	}
	if tr.ctx == nil {
		return nil
	}
	if fe := tr.spec.FailAtCheckpoint; fe > 0 && n >= fe {
		tr.cancel()
	}
	select {
	case <-tr.ctx.Done():
		reason := ErrCanceled
		if errors.Is(context.Cause(tr.ctx), context.DeadlineExceeded) {
			reason = ErrDeadline
		}
		return tr.Exhausted(reason)
	default:
		return nil
	}
}

// Canceled reports whether the run's context is done, without counting
// a checkpoint. Engine inner loops use it as a cheap stop signal.
func (tr *Tracker) Canceled() bool {
	if tr == nil || tr.ctx == nil {
		return false
	}
	select {
	case <-tr.ctx.Done():
		return true
	default:
		return false
	}
}

// Checkpoints returns how many checkpoints the run has passed.
func (tr *Tracker) Checkpoints() int64 {
	if tr == nil {
		return 0
	}
	return tr.checkpoints.Load()
}

// AddFacts records n derived facts.
func (tr *Tracker) AddFacts(n int) {
	if tr != nil {
		tr.facts.Add(int64(n))
	}
}

// AddRules records n emitted rules.
func (tr *Tracker) AddRules(n int) {
	if tr != nil {
		tr.rules.Add(int64(n))
	}
}

// AddSteps records n elementary steps.
func (tr *Tracker) AddSteps(n int) {
	if tr != nil {
		tr.steps.Add(int64(n))
	}
}

// SetRounds records the number of completed fixpoint rounds.
func (tr *Tracker) SetRounds(n int) {
	if tr != nil {
		tr.rounds.Store(int64(n))
	}
}

// Usage snapshots the tracker's counters.
func (tr *Tracker) Usage() Usage {
	if tr == nil {
		return Usage{}
	}
	return Usage{
		Facts:   int(tr.facts.Load()),
		Rules:   int(tr.rules.Load()),
		Rounds:  int(tr.rounds.Load()),
		Steps:   int(tr.steps.Load()),
		Elapsed: time.Since(tr.start),
	}
}

// Exhausted builds the typed error for the given sentinel reason with
// the current usage snapshot. Engines call it at the point a ceiling
// trips, then return it alongside their partial result.
func (tr *Tracker) Exhausted(reason error) *Error {
	if tr == nil {
		return &Error{Reason: reason}
	}
	return &Error{Reason: reason, Usage: tr.Usage()}
}
