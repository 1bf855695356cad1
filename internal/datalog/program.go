package datalog

import (
	"fmt"
	"runtime/debug"

	"guardedrules/internal/budget"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
)

// Program is a Datalog program compiled once and evaluated many times:
// the stratification and the per-stratum work-item templates — one
// round-0 template per rule, one semi-naive template per (rule ×
// positive-body-position), each with compiled id-space atoms and slot
// assignments — are all computed at Compile time and shared across
// evaluations. The join plans themselves are not fixed here: the
// evaluator plans a work item from the database's live cardinality
// statistics (hom.PlanBody) when it first joins, and again whenever a
// relation it reads has grown or shrunk 2× since, so the compile-time
// artifact is the plan *shape* (templates, slots) while the order is
// data-driven.
//
// A Program is immutable after Compile and safe for concurrent use: Eval
// clones the input database and instantiates the shared templates into
// per-run copies (constant-id resolution is per-database, so the
// templates themselves are never written after construction). This is
// the compile-once/query-many seam the serving layer (internal/kbcache)
// builds on: stratify/compile happen once per theory, per-query work is
// the fixpoint plus its planning.
type Program struct {
	th     *core.Theory
	strata []compiledStratum
	// readsACDom reports whether any rule body reads the maintained
	// ACDom relation. Only such programs can derive facts FROM domain
	// membership, which is what makes refcount-maintained ACDom unsound
	// under deletion (a derived fact can support its own ACDom guard);
	// incremental retraction runs its trusted-support cascade only when
	// this is set.
	readsACDom bool
	// lastStratum maps every derived relation to the last stratum with a
	// rule deriving it: its facts are final once that stratum's
	// over-deletion completed. Relations absent from the map are EDB.
	lastStratum map[core.RelKey]int
}

// compiledStratum is one stratum's reusable compiled form.
type compiledStratum struct {
	rules []*core.Rule
	// round0 holds one template per rule (full positive body, no delta
	// pattern) for the full evaluation of round 0.
	round0 []ctempl
	// items holds one template per (rule, positive body position).
	items []ctempl
	// negItems holds one maintenance template per (rule, negated
	// literal): the pattern is the negated atom, rest the full positive
	// body, heads the rule heads. DRed matches added facts against it to
	// over-delete newly blocked firings, and deleted facts to re-derive
	// newly unblocked ones.
	negItems []ctempl
	// redItems holds one template per (rule, head position): the pattern
	// is the head atom, rest the full positive body, no heads. DRed's
	// rederivation phase matches an over-deleted fact against it to ask
	// whether some surviving body instantiation still derives it.
	redItems []ctempl
	// headRels is the set of relations this stratum's rules can derive.
	headRels map[core.RelKey]bool
}

// Compile validates the theory as stratified Datalog and builds its
// reusable evaluation plan. The returned Program references the theory's
// rules; callers must not mutate them afterwards.
func Compile(th *core.Theory) (*Program, error) {
	for _, r := range th.Rules {
		if !r.IsDatalog() {
			return nil, fmt.Errorf("datalog: rule %s has existential variables", r.Label)
		}
	}
	strata, err := Stratify(th)
	if err != nil {
		return nil, err
	}
	p := &Program{th: th, strata: make([]compiledStratum, len(strata)),
		lastStratum: make(map[core.RelKey]int)}
	for i, rules := range strata {
		cs := &p.strata[i]
		cs.rules = rules
		cs.round0 = make([]ctempl, len(rules))
		cs.headRels = make(map[core.RelKey]bool)
		for j, r := range rules {
			cs.round0[j] = compileTemplate(r, nil, -1, true)
			body := r.PositiveBody()
			for bi := range body {
				cs.items = append(cs.items, compileTemplate(r, &body[bi], bi, true))
			}
			for _, l := range r.Body {
				if l.Negated {
					cs.negItems = append(cs.negItems, compileTemplate(r, &l.Atom, -1, true))
				}
				if l.Atom.Relation == core.ACDom {
					p.readsACDom = true
				}
			}
			for _, h := range r.Head {
				cs.redItems = append(cs.redItems, compileTemplate(r, &h, -1, false))
				cs.headRels[h.Key()] = true
				p.lastStratum[h.Key()] = i
			}
		}
	}
	return p, nil
}

// Theory returns the compiled program's rules.
func (p *Program) Theory() *core.Theory { return p.th }

// Strata reports the number of strata of the compiled program.
func (p *Program) Strata() int { return len(p.strata) }

// Rules reports the number of rules of the compiled program.
func (p *Program) Rules() int { return len(p.th.Rules) }

// Eval computes the stratified fixpoint over d with the compiled plan.
// The input database is not modified. On budget exhaustion the partial
// database — every fully merged round — is returned together with a
// typed *budget.Error, exactly like EvalSemiNaiveOpts.
func (p *Program) Eval(d *database.Database, opts Options) (*database.Database, error) {
	return p.EvalSeeded(d, nil, opts)
}

// EvalSeeded is Eval over d plus the ground facts seed. The seed goes
// into the one snapshot of d that the evaluation writes, so a seeded
// read (magic sets) clones d once.
func (p *Program) EvalSeeded(d *database.Database, seed []core.Atom, opts Options) (res *database.Database, err error) {
	tk := budget.Start(opts.Budget)
	defer tk.Stop()
	out := d.Clone()
	for _, a := range seed {
		out.Add(a)
	}
	// The engine boundary never panics: a fault anywhere in an evaluation
	// (a join, the merge loop, checkpoint injection) surfaces as one
	// failed request, not a dead process. The partial database stays
	// attached — completed merges only, a sound under-approximation.
	defer func() {
		if v := recover(); v != nil {
			res, err = out, fmt.Errorf("datalog: %w", &budget.PanicError{Value: v, Stack: debug.Stack()})
		}
	}()
	for i := range p.strata {
		if err := evalStratum(&p.strata[i], out, opts, tk); err != nil {
			// Budget exhaustion leaves the database a well-formed partial
			// fixpoint (the failing round's buffers were discarded before
			// any merge), so the partial result rides along with the
			// typed error.
			if budget.IsBudget(err) {
				return out, fmt.Errorf("datalog: stratum %d: %w", i, err)
			}
			return nil, fmt.Errorf("datalog: stratum %d: %w", i, err)
		}
	}
	return out, nil
}

// Answers evaluates the compiled program over d and extracts the
// all-constant q-tuples, in sorted textual order. On budget exhaustion
// the answers of the partial fixpoint are returned (a sound
// under-approximation) alongside the typed error.
func (p *Program) Answers(q string, d *database.Database, opts Options) ([][]core.Term, error) {
	fix, err := p.Eval(d, opts)
	if err != nil {
		if fix != nil && budget.IsBudget(err) {
			return CollectAnswers(fix, q), err
		}
		return nil, err
	}
	return CollectAnswers(fix, q), nil
}
