// Package saturate implements the translation from guarded theories to
// Datalog (Section 6 of the paper): the closure Ξ(Σ) of a guarded theory
// under the three inference rules of Figure 3, the Datalog program dat(Σ)
// of Definition 19 (Theorem 3), and its extension to nearly guarded
// theories (Proposition 6).
package saturate

import (
	"fmt"

	"guardedrules/internal/budget"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
)

// Options bounds the saturation. The closure is finite but can be doubly
// exponential in the worst case (Section 6); the caps turn a blow-up into
// an error instead of an endless run.
type Options struct {
	// Budget, when non-nil, governs the run: its context/deadline cancels
	// the saturation between worklist items (and inside long composition
	// searches), MaxRules caps the distinct rules of the closure (0 means
	// 200,000), MaxSteps caps inference work — rule applications plus the
	// nodes of the compositions' homomorphism searches (0 means
	// 50,000,000) — and exhaustion returns the partial closure computed
	// so far alongside a typed *budget.Error (ErrRuleLimit for the
	// doubly-exponential closure bound of Theorem 3, ErrStepLimit for the
	// inference budget).
	Budget *budget.T
}

// Default ceilings, applied when the budget leaves them at 0.
const (
	defaultMaxRules = 200_000
	maxInferences   = 50_000_000
)

// Stats reports the work done by a saturation run.
type Stats struct {
	// InputRules is the number of input rules.
	InputRules int
	// ClosureRules is the number of distinct rules in Ξ(Σ).
	ClosureRules int
	// DatalogRules is the number of rules in dat(Σ).
	DatalogRules int
	// Inferences counts the applications of inference rules that produced
	// a (possibly duplicate) rule.
	Inferences int
	// ComposePairs counts the (existential, Datalog) premise pairs whose
	// compositions were enumerated.
	ComposePairs int
	// Resumed reports that the run extended a base closure rather than
	// saturating from scratch; BaseRules is then the size of the base.
	Resumed   bool
	BaseRules int
	// FreshReason says why a run that was given a base closure saturated
	// from scratch instead; empty otherwise.
	FreshReason string
}

// Closure is a frozen closure Ξ(Σ) of a guarded rule set, kept so that
// Extend can saturate a superset of Σ without redoing Σ's inferences. It
// is immutable and safe for concurrent use.
type Closure struct{ p *pool }

// Datalog computes dat(Σ) for a guarded theory Σ (Definition 19): the
// closure under the inference rules of Figure 3, restricted to the rules
// without existential variables in the head. On budget exhaustion
// (errors.Is against the budget sentinels) the returned theory is the
// Datalog restriction of the partial closure — sound but possibly
// incomplete — so callers can degrade gracefully.
func Datalog(th *core.Theory, opts Options) (*core.Theory, *Stats, error) {
	for _, r := range th.Rules {
		if !classify.IsGuarded(r) {
			return nil, nil, fmt.Errorf("saturate: rule %s is not guarded", r.Label)
		}
	}
	dat, _, stats, err := Extend(nil, th, opts)
	return dat, stats, err
}

// NearlyGuardedToDatalog translates a nearly guarded theory into Datalog
// (Proposition 6): the guarded part Σg is saturated to dat(Σg); the safe
// Datalog part Σd is kept as is.
func NearlyGuardedToDatalog(th *core.Theory, opts Options) (*core.Theory, *Stats, error) {
	dat, _, stats, err := Extend(nil, th, opts)
	return dat, stats, err
}

// Extend translates a nearly guarded theory Σ′ like
// NearlyGuardedToDatalog and also returns the closure of its guarded
// part, for later Extend calls. Given a base closure Ξ(Σ) whose input
// rules are all among Σ′'s guarded rules, it resumes from Ξ(Σ): only
// the rules Σ′ adds are queued, and because Ξ is monotone the fixpoint
// reached is Ξ(Σ′). Otherwise it saturates from scratch and says why in
// Stats.FreshReason. The base is never modified. On budget exhaustion
// the partial dat(Σ′) and the typed error are returned, with no closure.
func Extend(base *Closure, th *core.Theory, opts Options) (*core.Theory, *Closure, *Stats, error) {
	var (
		guarded, safe []*core.Rule
		ap            classify.PosSet
	)
	for _, r := range th.Rules {
		if classify.IsGuarded(r) {
			if r.HasNegation() {
				return nil, nil, nil, fmt.Errorf("saturate: rule %s has negation", r.Label)
			}
			guarded = append(guarded, r)
			continue
		}
		// Affected positions are only needed to vet a non-guarded rule.
		if ap == nil {
			ap = classify.AffectedPositions(th)
		}
		if len(classify.Unsafe(r, ap)) > 0 || len(r.Exist) > 0 {
			return nil, nil, nil, fmt.Errorf("saturate: rule %s is not nearly guarded", r.Label)
		}
		safe = append(safe, r)
	}
	var bp *pool
	if base != nil {
		bp = base.p
	}
	p, err := saturation(bp, guarded, opts)
	if err != nil && !budget.IsBudget(err) {
		return nil, nil, nil, err
	}
	dat := p.datalog()
	dat.Add(safe...)
	p.stats.DatalogRules = len(dat.Rules)
	if err != nil {
		return dat, nil, &p.stats, err
	}
	return dat, &Closure{p: p}, &p.stats, nil
}

// saturation computes Ξ of the rules, resuming from base when base's
// input rules are among them. On budget exhaustion it returns the
// partial closure computed so far alongside the typed error; the stats
// are always valid.
func saturation(base *pool, rules []*core.Rule, opts Options) (*pool, error) {
	tk := budget.Start(opts.Budget)
	defer tk.Stop()
	p := newPool()
	if base != nil {
		p = base.resume()
	}
	p.maxSize = budget.Cap(opts.Budget, func(b *budget.T) int { return b.MaxRules }, defaultMaxRules)
	p.maxInfer = budget.Cap(opts.Budget, func(b *budget.T) int { return b.MaxSteps }, maxInferences)
	p.tk = tk
	type input struct {
		body, head []atom
		nv         int32
		label, key string
	}
	ins := make([]input, len(rules))
	keys := make(map[string]bool, len(rules))
	for i, r := range rules {
		body, head, nv := p.fromCore(r)
		body, head = dedupAtoms(body), dedupAtoms(head)
		ins[i] = input{body, head, nv, r.Label, p.cz.RuleKey(body, head, nv)}
		keys[ins[i].key] = true
	}
	p.stats.InputRules = len(rules)
	if base != nil {
		for k := range base.inputs {
			if !keys[k] {
				p.restart()
				p.stats.FreshReason = "the theory drops input rules of the base"
				break
			}
		}
		if p.stats.FreshReason == "" {
			p.stats.Resumed = true
			p.stats.BaseRules = len(p.rules)
		}
	}
	finish := func(err error) (*pool, error) {
		p.stats.ClosureRules = len(p.rules)
		return p, err
	}
	for _, in := range ins {
		if p.inputs[in.key] {
			continue // pooled by the base
		}
		p.inputs[in.key] = true
		if _, _, err := p.add(in.body, in.head, in.nv, in.label); err != nil {
			return finish(err)
		}
	}
	for len(p.work) > 0 {
		// Worklist checkpoint: cancellation and deadline are observed
		// between items; the closure so far stays attached to the result.
		if err := tk.Check(); err != nil {
			return finish(fmt.Errorf("saturate: %w", err))
		}
		i := p.work[len(p.work)-1]
		p.work = p.work[:len(p.work)-1]
		if err := p.step(i); err != nil {
			return finish(err)
		}
	}
	return finish(nil)
}

// datalog is dat(Σ): the closure's rules without existential variables.
func (p *pool) datalog() *core.Theory {
	out := core.NewTheory()
	for _, r := range p.rules {
		if r.existential() {
			continue
		}
		c := r.out
		if c == nil {
			c = p.toCore(r)
			if r.owner == p { // shared rules are never written
				r.out = c
			}
		}
		out.Add(c)
	}
	return core.StampGenerated(out, "guarded-saturation")
}
