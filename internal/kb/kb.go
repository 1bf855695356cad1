// Package kb implements knowledge-base querying (Section 7 of the paper):
// conjunctive queries over databases enriched with weakly frontier-guarded
// existential rules, the ACDom guarding of the query rule, the partial
// grounding pg(Σ, D), and the five-step decision pipeline
//
//	rew(Σ) → pg(rew(Σ), D) → dat(·) → bottom-up evaluation,
//
// which witnesses the 2ExpTime upper bound for combined complexity.
package kb

import (
	"fmt"

	"guardedrules/internal/annotate"
	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/rewrite"
	"guardedrules/internal/saturate"
)

// CQ is a conjunctive query: answer variables and a conjunction of atoms.
type CQ struct {
	Answer []core.Term
	Atoms  []core.Atom
}

// Validate checks that the answer variables occur in the atoms.
func (q CQ) Validate() error {
	vars := core.VarsOf(q.Atoms)
	for _, v := range q.Answer {
		if !v.IsVar() {
			return fmt.Errorf("kb: answer term %v is not a variable", v)
		}
		if !vars.Has(v) {
			return fmt.Errorf("kb: answer variable %v does not occur in the query", v)
		}
	}
	return nil
}

// QueryRel is the output relation attached to knowledge-base queries.
const QueryRel = "QAns"

// Attach builds the knowledge-base query (Σ ∪ {α ∧ ACDom(~x) → Q(~x)}, Q)
// of Section 7: the ACDom atoms make the query rule weakly
// frontier-guarded regardless of α's shape.
func Attach(th *core.Theory, q CQ) (*core.Theory, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	out := th.Clone()
	body := make([]core.Literal, 0, len(q.Atoms)+len(q.Answer))
	for _, a := range q.Atoms {
		body = append(body, core.Pos(a))
	}
	for _, v := range q.Answer {
		body = append(body, core.Pos(core.NewAtom(core.ACDom, v)))
	}
	out.Add(&core.Rule{
		Body:  body,
		Head:  []core.Atom{core.NewAtom(QueryRel, q.Answer...)},
		Label: "cq",
	})
	return out, nil
}

// AnswerByChase answers the knowledge-base query by a bounded chase of
// Σ ∪ {α → Q(~x)}: sound always, complete when the result is saturated or
// the bound covers the relevant derivations.
func AnswerByChase(th *core.Theory, q CQ, d *database.Database, opts chase.Options) ([][]core.Term, bool, error) {
	kbth, err := Attach(th, q)
	if err != nil {
		return nil, false, err
	}
	res, err := chase.Run(kbth, d, opts)
	if err != nil {
		if budget.IsBudget(err) && res != nil {
			// A budget-truncated chase still yields sound answers; return
			// the under-approximation alongside the typed error.
			return datalog.CollectAnswers(res.DB, QueryRel), false, err
		}
		return nil, false, err
	}
	return datalog.CollectAnswers(res.DB, QueryRel), res.Saturated, nil
}

// PartialGrounding computes pg(Σ, D) (Section 7, step 2): every variable
// of a rule occurring at some non-affected body position (a safe variable)
// is instantiated with constants of D in all possible ways. For a weakly
// guarded Σ the result is guarded. The budget's MaxRules caps the
// grounded rules (0 means 200,000); exceeding it returns the rules
// grounded so far with a typed *budget.Error wrapping ErrRuleLimit.
func PartialGrounding(th *core.Theory, d *database.Database, b *budget.T) (*core.Theory, error) {
	maxRules := budget.Cap(b, func(b *budget.T) int { return b.MaxRules }, defaultGroundRules)
	ap := classify.AffectedPositions(th)
	consts := d.Constants()
	out := core.NewTheory()
	for _, r := range th.Rules {
		unsafe := classify.Unsafe(r, ap)
		var safe []core.Term
		for v := range r.UVars() {
			if !unsafe.Has(v) {
				safe = append(safe, v)
			}
		}
		core.SortTerms(safe)
		var rec func(i int, s core.Subst) error
		rec = func(i int, s core.Subst) error {
			if i == len(safe) {
				if len(out.Rules) >= maxRules {
					return fmt.Errorf("kb: partial grounding exceeded %d rules: %w", maxRules,
						&budget.Error{Reason: budget.ErrRuleLimit, Usage: budget.Usage{Rules: len(out.Rules)}})
				}
				g := s.ApplyRule(r)
				g.Label = r.Label + "_pg"
				out.Add(g)
				return nil
			}
			for _, c := range consts {
				s[safe[i]] = c
				if err := rec(i+1, s); err != nil {
					return err
				}
			}
			delete(s, safe[i])
			return nil
		}
		if err := rec(0, core.Subst{}); err != nil {
			return out, err
		}
	}
	return out, nil
}

// defaultGroundRules caps pg(Σ, D) when the budget leaves MaxRules at 0.
const defaultGroundRules = 200_000

// PipelineStats reports the sizes along the Section 7 pipeline.
type PipelineStats struct {
	RewrittenRules int
	GroundedRules  int
	DatalogRules   int
}

// AnswerByPipeline answers the knowledge-base query with the paper's
// five-step procedure: rew (Theorem 2), partial grounding, dat
// (Theorem 3), bottom-up Datalog evaluation. The intermediate theories are
// exponential in general; the caps turn blow-ups into errors.
func AnswerByPipeline(th *core.Theory, q CQ, d *database.Database, rewOpts rewrite.Options, satOpts saturate.Options) ([][]core.Term, *PipelineStats, error) {
	kbth, err := Attach(th, q)
	if err != nil {
		return nil, nil, err
	}
	// Step 1: rew(Σ), weakly guarded.
	res, err := annotate.RewriteWFG(kbth, rewOpts)
	if err != nil {
		return nil, nil, err
	}
	stats := &PipelineStats{RewrittenRules: len(res.Rewritten.Rules)}
	dRe := res.Reorder.Database(d)
	// Step 2: partial grounding; the result is guarded.
	pg, err := PartialGrounding(res.Rewritten, dRe, satOpts.Budget)
	if err != nil {
		return nil, nil, err
	}
	stats.GroundedRules = len(pg.Rules)
	// Guarded up to fully-ground safe rules; nearly guarded covers both.
	dat, _, err := saturate.NearlyGuardedToDatalog(pg, satOpts)
	if err != nil {
		return nil, nil, err
	}
	stats.DatalogRules = len(dat.Rules)
	// Steps 4-5: bottom-up evaluation (grounding is implicit in the
	// semi-naive fixpoint).
	fix, err := datalog.Eval(dat, dRe)
	if err != nil {
		return nil, nil, err
	}
	back := res.Reorder.UndoDatabase(fix)
	return datalog.CollectAnswers(back, QueryRel), stats, nil
}
