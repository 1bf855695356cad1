package guardedrules

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"guardedrules/internal/core"
)

func mustTheory(t *testing.T, src string) *Theory {
	t.Helper()
	th, err := ParseTheory(src)
	if err != nil {
		t.Fatal(err)
	}
	return th
}

func mustDB(t *testing.T, src string) *Database {
	t.Helper()
	facts, err := ParseFacts(src)
	if err != nil {
		t.Fatal(err)
	}
	return NewDatabase(facts...)
}

const nonTerminating = "N(X) -> exists Y. E(X,Y). E(X,Y) -> N(Y)."

// The flat Options fields route into the budget: MaxFacts on a
// non-terminating chase yields the partial result and ErrFactLimit.
func TestChaseCtxMaxFacts(t *testing.T) {
	th := mustTheory(t, nonTerminating)
	res, err := ChaseCtx(context.Background(), th, mustDB(t, "N(a)."), Options{MaxFacts: 10})
	if !errors.Is(err, ErrFactLimit) {
		t.Fatalf("err = %v, want ErrFactLimit", err)
	}
	if res == nil || !res.Truncated || res.DB.Len() == 0 {
		t.Fatalf("partial result missing: %+v", res)
	}
}

// A canceled context stops the run with ErrCanceled.
func TestChaseCtxCancellation(t *testing.T) {
	th := mustTheory(t, nonTerminating)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ChaseCtx(ctx, th, mustDB(t, "N(a)."), Options{})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled matching context.Canceled", err)
	}
}

// Options.Timeout becomes the budget deadline.
func TestChaseCtxTimeout(t *testing.T) {
	th := mustTheory(t, nonTerminating)
	_, err := ChaseCtx(context.Background(), th, mustDB(t, "N(a)."), Options{Timeout: time.Nanosecond})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}

// The flat fields and the call's context merge into one budget; the zero
// options under a background context leave every engine default alone.
func TestOptionsBudgetMerge(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b := Options{Timeout: time.Hour, MaxFacts: 7, MaxRounds: 3}.budget(ctx)
	if b == nil || b.Ctx != ctx || b.MaxFacts != 7 || b.MaxRounds != 3 || b.Timeout != time.Hour {
		t.Fatalf("budget = %+v, want ctx, MaxFacts=7 MaxRounds=3 Timeout=1h", b)
	}
	if zero := (Options{}).budget(context.Background()); zero != nil {
		t.Fatalf("zero options must leave the engine defaults, got %+v", zero)
	}
}

// The engine defaults are ceilings like the explicit ones: the ungoverned
// chase of a non-terminating theory exhausts the default round ceiling
// and returns the partial result with ErrRoundLimit. MaxDepth alone stays
// the soft semantic bound: a nil error, with Truncated and Reason set.
func TestChaseCtxDefaultCeilingIsTyped(t *testing.T) {
	th := mustTheory(t, nonTerminating)
	res, err := ChaseCtx(context.Background(), th, mustDB(t, "N(a)."), Options{})
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
	if res == nil || !res.Truncated || res.DB.Len() == 0 {
		t.Fatalf("partial result missing: %+v", res)
	}
	res, err = ChaseCtx(context.Background(), th, mustDB(t, "N(a)."), Options{MaxDepth: 3})
	if err != nil {
		t.Fatalf("MaxDepth-only run must not error, got %v", err)
	}
	if !res.Truncated || !errors.Is(res.Reason, ErrDepthLimit) {
		t.Fatalf("Truncated=%v Reason=%v, want soft ErrDepthLimit", res.Truncated, res.Reason)
	}
}

// Goal-directed answering agrees with the full fixpoint's answers on the
// bound constant.
func TestGoalDirectedMatchesAnswersCtx(t *testing.T) {
	th := mustTheory(t, "E(X,Y) -> T(X,Y). T(X,Y), T(Y,Z) -> T(X,Z).")
	d := mustDB(t, "E(a,b). E(b,c). E(c,d).")

	all, err := AnswersCtx(context.Background(), th, "T", d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var fromA [][]Term
	for _, tup := range all {
		if tup[0] == Const("a") {
			fromA = append(fromA, tup)
		}
	}
	g, err := AnswersGoalDirectedCtx(context.Background(), th, NewAtom("T", Const("a"), Var("Y")), d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(g) != fmt.Sprint(fromA) || len(g) != 3 {
		t.Fatalf("goal-directed answers %v, want %v", g, fromA)
	}
}

// TranslateCtx routes by fragment: a nearly guarded theory saturates
// directly to Datalog, and the output theory is existential-free with
// the same ground atomic consequences.
func TestTranslateCtxToDatalog(t *testing.T) {
	th := mustTheory(t, `
		A(X) -> exists Y. R(X,Y).
		R(X,Y) -> B(X).
	`)
	dl, err := TranslateCtx(context.Background(), th, ToDatalog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !Classify(dl).Member[Datalog] {
		t.Fatal("dat(Σ) must be plain Datalog")
	}
	d := mustDB(t, "A(a).")
	out, err := EvalDatalogCtx(context.Background(), dl, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Len(); got == 0 {
		t.Fatalf("dat(Σ) lost consequences, db len %d", got)
	}
	ans, err := AnswersCtx(context.Background(), dl, "B", d, Options{})
	if err != nil || len(ans) != 1 {
		t.Fatalf("B answers = %v (%v), want [[a]]", ans, err)
	}
}

// TranslateCtx with a rule ceiling aborts with ErrRuleLimit.
func TestTranslateCtxRuleLimit(t *testing.T) {
	th := mustTheory(t, `
		R(X,Y), S(Y) -> exists Z. R(Y,Z).
		R(X,Y) -> S(Y).
	`)
	_, err := TranslateCtx(context.Background(), th, ToDatalog, Options{MaxRules: 2})
	if !errors.Is(err, ErrRuleLimit) {
		t.Fatalf("err = %v, want ErrRuleLimit", err)
	}
}

// CoreOfCtx honours MaxSteps: the search comes back sound but
// inexact with ErrStepLimit.
func TestCoreOfCtxStepLimit(t *testing.T) {
	var atoms []Atom
	for i := 0; i < 8; i++ {
		atoms = append(atoms, NewAtom("E", Const("a"), core.NewNull(fmt.Sprintf("n%d", i))))
	}
	res, exact, err := CoreOfCtx(context.Background(), atoms, Options{MaxSteps: 1})
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
	if exact || len(res) == 0 || len(res) > len(atoms) {
		t.Fatalf("truncated core search: exact=%v len=%d", exact, len(res))
	}

	full, exact, err := CoreOfCtx(context.Background(), atoms, Options{})
	if err != nil || !exact || len(full) != 1 {
		t.Fatalf("exhaustive core = %d atoms exact=%v (%v), want 1 atom", len(full), exact, err)
	}
}

// AnswerCQCtx under a fact budget returns sound partial answers.
func TestAnswerCQCtxBudget(t *testing.T) {
	th := mustTheory(t, nonTerminating)
	q, err := ParseCQ("N(X) -> Ans(X).")
	if err != nil {
		t.Fatal(err)
	}
	ans, exact, err := AnswerCQCtx(context.Background(), th, q, mustDB(t, "N(a)."), Options{MaxFacts: 10})
	if !IsBudgetError(err) {
		t.Fatalf("err = %v, want a budget error", err)
	}
	if exact || len(ans) == 0 {
		t.Fatalf("want inexact non-empty answers, got exact=%v %v", exact, ans)
	}
}

// EvalStratifiedCtx surfaces the partial database on budget exhaustion.
func TestEvalStratifiedCtxBudget(t *testing.T) {
	th := mustTheory(t, nonTerminating)
	out, exact, err := EvalStratifiedCtx(context.Background(), th, mustDB(t, "N(a)."), Options{MaxFacts: 10})
	if !IsBudgetError(err) {
		t.Fatalf("err = %v, want a budget error", err)
	}
	if exact || out == nil || out.Len() == 0 {
		t.Fatalf("want inexact partial db, got exact=%v out=%v", exact, out)
	}
}
