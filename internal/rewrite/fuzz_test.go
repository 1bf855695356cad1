package rewrite_test

import (
	"errors"
	"testing"
	"time"

	"guardedrules/internal/budget"
	"guardedrules/internal/classify"
	"guardedrules/internal/normalize"
	"guardedrules/internal/parser"
	"guardedrules/internal/rewrite"
)

// FuzzRewrite runs rew(Σ) under a small budget on every parsed theory
// that is nearly frontier-guarded before and after normalization, has no
// negation and no rule over nine universal variables. It must never panic. A complete run is nearly
// guarded and prints the same theory twice; an exhausted one returns a
// typed budget error. Run long with:
//
//	go test -run '^$' -fuzz '^FuzzRewrite$' ./internal/rewrite
func FuzzRewrite(f *testing.F) {
	for _, rt := range rewCorpus(f) {
		f.Add(parser.PrintTheory(rt.th))
	}
	for _, s := range []string{
		// The nine-variable edge: the largest selection space expanded.
		`R(X1,X2,X3), R(X3,X4,X5), R(X5,X6,X7), R(X7,X8,X9) -> P(X1).`,
		`A(X) -> exists Y. R(X,Y). R(X1,X2), R(X2,X3), R(X3,X4), R(X4,X5), R(X5,X6), R(X6,X7), R(X7,X8), R(X8,X9), R(X9,X1) -> P(X1).`,
		// Annotations, on both sides of a split.
		`A[U](X) -> exists Y. R[U](X,Y). R[U](X,Y), S[V](Y,Z), R[V](Z,X) -> P[U,V](X).`,
		`R[?u](X,Y), R[?u](Y,Z), T(Z,X) -> P[?u](X). A(X) -> exists Y. T(X,Y).`,
		// Repeated variables and a constant.
		`A(X) -> exists Y. R(X,Y). R(X,X), R(X,Y), S(Y,Y) -> P(X). R(X,Y), S(Y,c) -> Q(X).`,
	} {
		f.Add(s)
	}
	opts := func() rewrite.Options {
		return rewrite.Options{Budget: &budget.T{MaxRules: 500, Timeout: 100 * time.Millisecond}}
	}
	f.Fuzz(func(t *testing.T, src string) {
		th, err := parser.ParseTheory(src)
		if err != nil || th.HasNegation() || !classify.Classify(th).Member[classify.NearlyFrontierGuarded] {
			return
		}
		// Normalizing can leave the fragment (a head constant of a guarded
		// existential rule becomes an unguarded marker join); Rewrite
		// rightly rejects such input, so it is skipped too.
		norm := normalize.Normalize(th)
		if !classify.Classify(norm).Member[classify.NearlyFrontierGuarded] {
			return
		}
		for _, r := range norm.Rules {
			if len(r.UVars()) > 9 {
				return
			}
		}
		rew, _, err := rewrite.Rewrite(norm, opts())
		if err != nil {
			var be *budget.Error
			if !errors.As(err, &be) || !budget.IsBudget(err) || rew == nil {
				t.Fatalf("err = %v (theory %v), want a typed budget error with the partial rewriting", err, rew != nil)
			}
			return
		}
		if rep := classify.Classify(rew); !rep.Member[classify.NearlyGuarded] {
			t.Fatalf("rew(Σ) is not nearly guarded (offender %v)", rep.Offender[classify.NearlyGuarded])
		}
		again, _, err := rewrite.Rewrite(norm, opts())
		if err == nil && parser.PrintTheory(again) != parser.PrintTheory(rew) {
			t.Fatalf("two runs differ:\n%s\n---\n%s", parser.PrintTheory(rew), parser.PrintTheory(again))
		}
	})
}
