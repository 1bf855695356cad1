// Package stratified implements existential theories with stratified
// negation (Section 8 of the paper, Definitions 22 and 23): syntax and
// safety checks, stratification, weak guardedness in the presence of
// negation, and the iterative chase semantics.
//
// The chase of a weakly guarded stratum is infinite in general; Options
// carries per-stratum chase bounds. EXPERIMENTS.md documents, per
// construction, the depth at which the relevant consequences are complete.
package stratified

import (
	"fmt"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
)

// Options configures the per-stratum chase.
type Options struct {
	// Chase bounds applied to every stratum.
	Chase chase.Options
	// StratumChase, when non-nil, overrides Chase per stratum; it receives
	// the 0-based stratum index and the stratum's rules. The capture
	// constructions use it to bound the ordering forest of Σsucc tighter
	// than the machine-simulation strata.
	StratumChase func(i int, rules []*core.Rule) chase.Options
}

func (o Options) chaseFor(i int, rules []*core.Rule) chase.Options {
	if o.StratumChase != nil {
		return o.StratumChase(i, rules)
	}
	return o.Chase
}

// Result is the outcome of evaluating a stratified theory.
type Result struct {
	// DB is S_n of Definition 23, restricted to the original symbols.
	DB *database.Database
	// Strata is the number of strata used.
	Strata int
	// Truncated reports whether any stratum's chase hit a budget.
	Truncated bool
	// Steps sums the chase steps over all strata.
	Steps int
}

// CheckStratified verifies that the theory is stratified (Definition 22)
// and safe. It returns the strata.
func CheckStratified(th *core.Theory) ([][]*core.Rule, error) {
	if err := th.CheckSafe(); err != nil {
		return nil, err
	}
	return datalog.Stratify(th)
}

// IsWeaklyGuarded reports whether the stratified theory is weakly guarded
// in the sense of Section 8: weak guardedness of the theory obtained by
// dropping all negative atoms. (The classify package already ignores
// negated atoms.)
func IsWeaklyGuarded(th *core.Theory) bool {
	return classify.Classify(th).Member[classify.WeaklyGuarded]
}

// Eval computes chase(Σ, D) of Definition 23: the strata are chased in
// order, each against the result of the previous one, with negation
// evaluated against the completed earlier strata (negated relations are
// never derived in their own stratum, so the per-stratum chase can test
// them against the growing database safely).
func Eval(th *core.Theory, d *database.Database, opts Options) (*Result, error) {
	strata, err := CheckStratified(th)
	if err != nil {
		return nil, err
	}
	res := &Result{Strata: len(strata)}
	cur := d.Clone()
	for i, rules := range strata {
		st := core.NewTheory(rules...)
		// Negated relations of this stratum must be fully known: they are
		// defined in earlier strata (or are input relations), so their
		// extension in cur is final — except under truncation, which is
		// reported.
		cres, err := chase.Run(st, cur, opts.chaseFor(i, rules))
		if err != nil {
			err = fmt.Errorf("stratified: stratum %d: %w", i, err)
			if budget.IsBudget(err) && cres != nil {
				// The stratum's partial chase is still a sound
				// under-approximation; surface it alongside the error.
				res.Steps += cres.Steps
				res.Truncated = true
				res.DB = cres.DB
				return res, err
			}
			return nil, err
		}
		res.Steps += cres.Steps
		if cres.Truncated {
			res.Truncated = true
		}
		cur = cres.DB
	}
	res.DB = cur
	return res, nil
}

// Entails reports whether the ground atom is in the stratified chase.
// Sound on truncated runs; complete only when Truncated is false or the
// bound is argued sufficient for the construction at hand.
func (r *Result) Entails(a core.Atom) bool { return r.DB.Has(a) }
