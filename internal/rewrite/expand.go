package rewrite

import (
	"fmt"

	"guardedrules/internal/budget"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/normalize"
)

// Options bounds the expansion, which is worst-case exponential
// (Section 5.1).
type Options struct {
	// Budget, when non-nil, governs the run: its context/deadline cancels
	// the expansion between worklist items, its MaxRules caps the distinct
	// rules of ex(Σ) (the single-exponential bound of Theorem 1; 0 means
	// 100,000), and exhaustion returns the rules emitted so far alongside
	// a typed *budget.Error wrapping ErrRuleLimit, ErrCanceled or
	// ErrDeadline.
	Budget *budget.T
}

const (
	// defaultMaxRules caps ex(Σ) when the budget leaves MaxRules at 0.
	defaultMaxRules = 100_000
	// maxRuleVars rejects input rules with more universal variables than
	// this: the selection space is exponential in it.
	maxRuleVars = 9
)

// Stats reports the work of an expansion run.
type Stats struct {
	InputRules     int
	ExpansionRules int // rules in ex(Σ)
	Selections     int // selections enumerated
	Splits         int // distinct splits (rc/rnc partitions)
	GuardVariants  int // guard instantiations generated
	Passthrough    int // safe Datalog rules left untouched (Definition 14)
}

// expander carries the expansion state.
type expander struct {
	opts     Options
	origRels []core.RelKey // relations of the input Σ (guards come from these)
	k        int           // maximal relation arity of Σ
	byKey    map[string]*core.Rule
	rules    []*core.Rule
	work     []*core.Rule
	splitH   map[string]string // canonical split key → H relation name
	freshN   int
	maxRules int
	tk       *budget.Tracker
	stats    Stats
}

// Expand computes ex(Σ) (Definition 12) for a normal theory whose
// frontier-guarded part drives the rewriting; rules that are neither
// frontier-guarded nor guarded must be safe Datalog rules
// (nearly frontier-guarded input, Definition 14) and pass through.
// On budget exhaustion (errors.Is against the budget sentinels) the
// returned theory holds the rules emitted so far; input-validation errors
// return a nil theory as before.
func Expand(th *core.Theory, opts Options) (*core.Theory, *Stats, error) {
	if !normalize.IsNormal(th) {
		return nil, nil, fmt.Errorf("rewrite: theory is not normal; call normalize.Normalize first")
	}
	tk := budget.Start(opts.Budget)
	defer tk.Stop()
	ap := classify.AffectedPositions(th)
	e := &expander{
		opts:     opts,
		origRels: th.Relations(),
		k:        th.MaxArity(),
		byKey:    make(map[string]*core.Rule),
		splitH:   make(map[string]string),
		maxRules: budget.Cap(opts.Budget, func(b *budget.T) int { return b.MaxRules }, defaultMaxRules),
		tk:       tk,
	}
	// finish attaches the rules emitted so far — the partial ex(Σ) on a
	// budget error, the complete expansion on nil.
	finish := func(err error) (*core.Theory, *Stats, error) {
		e.stats.ExpansionRules = len(e.rules)
		out := core.NewTheory(e.rules...)
		return core.StampGenerated(out, "fg-expansion"), &e.stats, err
	}
	e.stats.InputRules = len(th.Rules)
	for _, r := range th.Rules {
		if r.HasNegation() {
			return nil, nil, fmt.Errorf("rewrite: rule %s has negation", r.Label)
		}
		fg := classify.IsFrontierGuarded(r)
		if !fg {
			if len(classify.Unsafe(r, ap)) > 0 || len(r.Exist) > 0 {
				return nil, nil, fmt.Errorf("rewrite: rule %s is neither frontier-guarded nor safe Datalog (theory is not nearly frontier-guarded)", r.Label)
			}
			// Definition 14: σ ∈ Σd needs no rewriting.
			e.stats.Passthrough++
		}
		if _, err := e.add(r, fg); err != nil {
			return finishOrNil(finish, err)
		}
	}
	for _, br := range bagRules(e.origRels, e.k) {
		if _, err := e.add(br, false); err != nil {
			return finishOrNil(finish, err)
		}
	}
	for len(e.work) > 0 {
		// Worklist checkpoint: cancellation and deadline are observed
		// between rules; the expansion so far stays attached.
		if err := tk.Check(); err != nil {
			return finish(fmt.Errorf("rewrite: %w", err))
		}
		r := e.work[len(e.work)-1]
		e.work = e.work[:len(e.work)-1]
		if err := e.expandRule(r); err != nil {
			return finishOrNil(finish, err)
		}
	}
	return finish(nil)
}

// finishOrNil returns the partial expansion for governed exhaustion and a
// bare error otherwise (input-validation failures have no useful partial).
func finishOrNil(finish func(error) (*core.Theory, *Stats, error), err error) (*core.Theory, *Stats, error) {
	if budget.IsBudget(err) {
		return finish(err)
	}
	return nil, nil, err
}

// add inserts a rule into the expansion (deduplicated up to renaming);
// eligible non-guarded Datalog frontier-guarded rules are enqueued for
// further rewriting when enqueue is true.
func (e *expander) add(r *core.Rule, enqueue bool) (bool, error) {
	k := core.CanonicalKey(r)
	if _, ok := e.byKey[k]; ok {
		return false, nil
	}
	if len(e.rules) >= e.maxRules {
		return false, fmt.Errorf("rewrite: expansion exceeded %d rules: %w",
			e.maxRules, e.tk.Exhausted(budget.ErrRuleLimit))
	}
	e.byKey[k] = r
	e.rules = append(e.rules, r)
	e.tk.AddRules(1)
	if enqueue && r.IsDatalog() && !classify.IsGuarded(r) && classify.IsFrontierGuarded(r) {
		e.work = append(e.work, r)
	}
	return true, nil
}

// measure is the paper's progress measure: the number of universal
// variables not occurring in the best frontier guard.
func measure(r *core.Rule) int {
	uv := r.UVars()
	fv := r.FVars()
	best := len(uv) + 1
	for _, a := range r.PositiveBody() {
		av := a.Vars()
		if !av.ContainsAll(fv) {
			continue
		}
		outside := 0
		for v := range uv {
			if !av.Has(v) {
				outside++
			}
		}
		if outside < best {
			best = outside
		}
	}
	return best
}

// expandRule applies every rc- and rnc-rewriting of the non-guarded
// Datalog rule σ (Definition 12).
func (e *expander) expandRule(r *core.Rule) error {
	if len(r.UVars()) > maxRuleVars {
		return fmt.Errorf("rewrite: rule %s has more than %d variables", r.Label, maxRuleVars)
	}
	parentMeasure := measure(r)
	sels := selections(r, e.k)
	e.stats.Selections += len(sels)
	for _, sel := range sels {
		for _, kind := range []string{"rc", "rnc"} {
			sp, ok, err := buildSplit(r, sel, kind)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			key, csp := canonSplit(sp)
			// Each split is processed once globally: a later isomorphic
			// split would emit exactly the same pair up to renaming.
			if _, done := e.splitH[key]; done {
				continue
			}
			e.freshN++
			name := fmt.Sprintf("Aux_%d", e.freshN)
			e.splitH[key] = name
			csp.hAtom.Relation = name
			e.stats.Splits++
			if kind == "rc" {
				err = e.emitRC(r, csp, parentMeasure)
			} else {
				err = e.emitRNC(r, csp, parentMeasure)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// emitRC adds the rc-rewriting pair (Definition 10): the guarded rule
// σ′ = Bag(~x) ∧ µ(cov) → H(~y) and the rule
// σ′′ = H(~y) ∧ µ(body\cov) → µ(head). The bag guard Bag(~x) over all
// variables of σ′ plays the role of the paper's arbitrary guard relation
// R(~x) from Σ: a bag fact witnesses that the variables' images co-occur
// in a single atom of the chase (see bagRules).
func (e *expander) emitRC(r *core.Rule, sp split, parentMeasure int) error {
	need := core.VarsOf(sp.removed)
	need.AddAll(core.NewTermSet(sp.hAtom.Args...))
	guard, ok := e.bagAtom(need)
	if !ok {
		return nil
	}
	e.stats.GuardVariants++
	body := append([]core.Atom{guard}, sp.removed...)
	sigma1 := core.NewRule(body, nil, sp.hAtom)
	sigma1.Label = r.Label + "_rc1"
	if _, err := e.add(sigma1, false); err != nil {
		return err
	}
	body2 := append([]core.Atom{sp.hAtom}, sp.kept...)
	sigma2 := core.NewRule(body2, nil, sp.head)
	sigma2.Label = r.Label + "_rc2"
	enqueue := measure(sigma2) < parentMeasure
	_, err := e.add(sigma2, enqueue)
	return err
}

// emitRNC adds the rnc-rewriting pair (Definition 11): the
// frontier-guarded rule σ′ = Bag(~y, z) ∧ µ(body\cov) → H(~y) for every
// projected variable z of µ(body\cov) (condition (b)), and the guarded
// rule σ′′ = Bag(vars(σ′′)) ∧ H(~y) ∧ µ(cov) → µ(head).
func (e *expander) emitRNC(r *core.Rule, sp split, parentMeasure int) error {
	keep := core.NewTermSet(sp.hAtom.Args...)
	removedVars := core.VarsOf(sp.removed)
	// When µ(body\cov) already frontier-guards ~y, σ′ needs no additional
	// guard atom (the paper's Example 6); the guard-free rule subsumes
	// every guarded variant.
	frontierGuarded := false
	for _, a := range sp.removed {
		if a.Vars().ContainsAll(keep) {
			frontierGuarded = true
			break
		}
	}
	if frontierGuarded {
		sigma1 := core.NewRule(append([]core.Atom(nil), sp.removed...), nil, sp.hAtom)
		sigma1.Label = r.Label + "_rnc1"
		enqueue := measure(sigma1) < parentMeasure
		if _, err := e.add(sigma1, enqueue); err != nil {
			return err
		}
	} else {
		for _, z := range removedVars.Sorted() {
			if keep.Has(z) {
				continue
			}
			need := make(core.TermSet)
			need.AddAll(keep)
			need.Add(z)
			guard, ok := e.bagAtom(need)
			if !ok {
				continue
			}
			e.stats.GuardVariants++
			body := append([]core.Atom{guard}, sp.removed...)
			sigma1 := core.NewRule(body, nil, sp.hAtom)
			sigma1.Label = r.Label + "_rnc1"
			enqueue := measure(sigma1) < parentMeasure
			if _, err := e.add(sigma1, enqueue); err != nil {
				return err
			}
		}
	}
	// σ′′ needs a guard over every variable of σ′′.
	need := core.NewTermSet(sp.hAtom.Args...)
	need.AddAll(core.VarsOf(sp.kept))
	need.AddAll(sp.head.Vars())
	guard, ok := e.bagAtom(need)
	if !ok {
		return nil
	}
	e.stats.GuardVariants++
	body := append([]core.Atom{guard, sp.hAtom}, sp.kept...)
	sigma2 := core.NewRule(body, nil, sp.head)
	sigma2.Label = r.Label + "_rnc2"
	_, err := e.add(sigma2, false)
	return err
}

// bagAtom returns the guard atom NodeBag_j(~v) for the sorted variable
// set, or ok=false when the set exceeds the maximal relation arity k (no
// guard of Σ could cover it, Definitions 10/11).
func (e *expander) bagAtom(need core.TermSet) (core.Atom, bool) {
	j := len(need)
	if j == 0 || j > e.k {
		return core.Atom{}, j == 0
	}
	return core.NewAtom(bagName(j), need.Sorted()...), true
}

func bagName(j int) string { return fmt.Sprintf("NodeBag_%d", j) }

// bagRules derives the bag relations from every relation of Σ: for each
// R/n and each injective tuple (i1,...,ij) of argument positions,
// R(x1,...,xn) → NodeBag_j(x_i1,...,x_ij). All bag rules are guarded.
func bagRules(rels []core.RelKey, k int) []*core.Rule {
	var out []*core.Rule
	for _, rk := range rels {
		if rk.Name == core.ACDom || rk.Arity == 0 {
			continue
		}
		args := make([]core.Term, rk.Arity)
		for i := range args {
			args[i] = core.Var(fmt.Sprintf("x%d", i+1))
		}
		var ann []core.Term
		for i := 0; i < rk.AnnArity; i++ {
			ann = append(ann, core.Var(fmt.Sprintf("a%d", i+1)))
		}
		src := core.Atom{Relation: rk.Name, Args: args, Annotation: ann}
		maxJ := rk.Arity
		if maxJ > k {
			maxJ = k
		}
		var tuples func(j int, chosen []int)
		tuples = func(j int, chosen []int) {
			if j == 0 {
				head := make([]core.Term, len(chosen))
				for i, c := range chosen {
					head[i] = args[c]
				}
				rl := core.NewRule([]core.Atom{src}, nil, core.NewAtom(bagName(len(chosen)), head...))
				rl.Label = "bag_" + rk.Name
				out = append(out, rl)
				return
			}
			for c := 0; c < rk.Arity; c++ {
				used := false
				for _, prev := range chosen {
					if prev == c {
						used = true
						break
					}
				}
				if !used {
					tuples(j-1, append(chosen, c))
				}
			}
		}
		for j := 1; j <= maxJ; j++ {
			tuples(j, nil)
		}
	}
	return out
}

// Rewrite computes rew(Σ) (Definition 13 / Theorem 1 / Proposition 4):
// the expansion ex(Σ) with ACDom guards added to every non-guarded rule of
// the frontier-guarded part. The result is nearly guarded and preserves
// the answers of every query (Σ, Q). On budget exhaustion the partial
// expansion is post-processed the same way and returned alongside the
// typed error.
func Rewrite(th *core.Theory, opts Options) (*core.Theory, *Stats, error) {
	ap := classify.AffectedPositions(th)
	passthrough := make(map[*core.Rule]bool)
	for _, r := range th.Rules {
		if !classify.IsFrontierGuarded(r) && len(classify.Unsafe(r, ap)) == 0 && len(r.Exist) == 0 {
			passthrough[r] = true
		}
	}
	ex, stats, err := Expand(th, opts)
	if err != nil && !budget.IsBudget(err) {
		return nil, nil, err
	}
	ptKeys := make(map[string]bool)
	for r := range passthrough {
		ptKeys[core.CanonicalKey(r)] = true
	}
	out := core.NewTheory()
	for _, r := range ex.Rules {
		if classify.IsGuarded(r) || ptKeys[core.CanonicalKey(r)] {
			out.Add(r)
			continue
		}
		r2 := r.Clone()
		for _, x := range r2.UVars().Sorted() {
			r2.Body = append(r2.Body, core.Pos(core.NewAtom(core.ACDom, x)))
		}
		out.Add(r2)
	}
	return core.StampGenerated(out, "nearly-guarded-rewrite"), stats, err
}
