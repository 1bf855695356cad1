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
	"guardedrules/internal/hom"
)

// Options bounds the saturation. The closure is finite but can be doubly
// exponential in the worst case (Section 6); the caps turn a blow-up into
// an error instead of an endless run.
type Options struct {
	// Budget, when non-nil, governs the run: its context/deadline cancels
	// the saturation between worklist items, MaxRules caps the distinct
	// rules of the closure (0 means 200,000), MaxSteps caps inference
	// applications (0 means 50,000,000), and exhaustion returns the
	// partial closure computed so far alongside a typed *budget.Error
	// (ErrRuleLimit for the doubly-exponential closure bound of Theorem 3,
	// ErrStepLimit for the inference budget).
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
}

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
		if r.HasNegation() {
			return nil, nil, fmt.Errorf("saturate: rule %s has negation", r.Label)
		}
	}
	closure, stats, err := saturation(th, opts)
	if err != nil && !budget.IsBudget(err) {
		return nil, nil, err
	}
	out := core.NewTheory()
	for _, r := range closure {
		if len(r.Exist) == 0 {
			out.Add(r)
		}
	}
	stats.DatalogRules = len(out.Rules)
	return core.StampGenerated(out, "guarded-saturation"), stats, err
}

// NearlyGuardedToDatalog translates a nearly guarded theory into Datalog
// (Proposition 6): the guarded part Σg is saturated to dat(Σg); the safe
// Datalog part Σd is kept as is.
func NearlyGuardedToDatalog(th *core.Theory, opts Options) (*core.Theory, *Stats, error) {
	ap := classify.AffectedPositions(th)
	guarded := core.NewTheory()
	var safe []*core.Rule
	for _, r := range th.Rules {
		switch {
		case classify.IsGuarded(r):
			guarded.Add(r)
		case len(classify.Unsafe(r, ap)) == 0 && len(r.Exist) == 0:
			safe = append(safe, r)
		default:
			return nil, nil, fmt.Errorf("saturate: rule %s is not nearly guarded", r.Label)
		}
	}
	dat, stats, err := Datalog(guarded, opts)
	if err != nil && !budget.IsBudget(err) {
		return nil, nil, err
	}
	dat.Add(safe...)
	stats.DatalogRules = len(dat.Rules)
	return dat, stats, err
}

// pool is the worklist-driven closure state. Datalog rules are
// deduplicated up to renaming; existential rules are kept one per
// canonical body, with heads merged monotonically (conjoining two
// existential conclusions of the same body is sound — the witnesses are
// independent — and preserves every homomorphism target of either head).
// This consequence-driven representation keeps the closure polynomial in
// the number of derivable head atoms per body instead of exponential.
type pool struct {
	byKey    map[string]*core.Rule
	byBody   map[string]*core.Rule // canonical body → merged existential rule
	rules    []*core.Rule
	work     []workItem
	stats    Stats
	maxSize  int
	maxInfer int
	tk       *budget.Tracker
	freshEV  int
}

// workItem is a rule to process; for merged existential rules, delta holds
// the head atoms added since the rule was last processed, so compositions
// only re-run against new homomorphism targets (semi-naive saturation).
type workItem struct {
	r     *core.Rule
	delta []core.Atom // nil means "all head atoms are new"
}

func (p *pool) add(r *core.Rule) (bool, error) {
	r = normalizeRule(r)
	if r == nil {
		return false, nil
	}
	p.stats.Inferences++
	p.tk.AddSteps(1)
	if p.maxInfer > 0 && p.stats.Inferences > p.maxInfer {
		return false, fmt.Errorf("saturate: inference budget exceeded: %w",
			p.tk.Exhausted(budget.ErrStepLimit))
	}
	if len(r.Exist) > 0 {
		return p.mergeExistential(r)
	}
	k := core.CanonicalKey(r)
	if _, ok := p.byKey[k]; ok {
		return false, nil
	}
	if len(p.rules) >= p.maxSize {
		return false, fmt.Errorf("saturate: closure exceeded %d rules: %w",
			p.maxSize, p.tk.Exhausted(budget.ErrRuleLimit))
	}
	if r.Label == "" {
		r.Label = fmt.Sprintf("xi%d", len(p.rules))
	}
	p.byKey[k] = r
	p.rules = append(p.rules, r)
	p.tk.AddRules(1)
	p.work = append(p.work, workItem{r: r})
	return true, nil
}

// mergeExistential folds r into the pooled rule with the same canonical
// body, renaming r's variables along a body isomorphism; new head atoms
// re-enqueue the pooled rule.
func (p *pool) mergeExistential(r *core.Rule) (bool, error) {
	body := r.PositiveBody()
	key, rNums := core.CanonicalAtomSet(body)
	pooled, ok := p.byBody[key]
	if !ok {
		if len(p.rules) >= p.maxSize {
			return false, fmt.Errorf("saturate: closure exceeded %d rules: %w",
				p.maxSize, p.tk.Exhausted(budget.ErrRuleLimit))
		}
		p.byBody[key] = r
		p.rules = append(p.rules, r)
		p.tk.AddRules(1)
		p.work = append(p.work, workItem{r: r})
		return true, nil
	}
	_, pNums := core.CanonicalAtomSet(pooled.PositiveBody())
	ren, ok := bodyIso(body, pooled.PositiveBody(), rNums, pNums)
	if !ok {
		// Should not happen for equal keys; fall back to a fresh entry
		// keyed by the full rule.
		k := core.CanonicalKey(r)
		if _, dup := p.byKey[k]; dup {
			return false, nil
		}
		p.byKey[k] = r
		p.rules = append(p.rules, r)
		p.tk.AddRules(1)
		p.work = append(p.work, workItem{r: r})
		return true, nil
	}
	// Rename r's existential variables freshly to avoid capture.
	for _, v := range r.Exist {
		p.freshEV++
		ren[v] = core.Var(fmt.Sprintf("ev%d", p.freshEV))
	}
	var added []core.Atom
	for _, h := range r.Head {
		nh := ren.ApplyAtom(h)
		if !core.ContainsAtom(pooled.Head, nh) && !headSubsumed(pooled, nh) {
			pooled.Head = append(pooled.Head, nh)
			added = append(added, nh)
		}
	}
	if len(added) > 0 {
		merged := normalizeRule(pooled)
		pooled.Head = merged.Head
		pooled.Exist = merged.Exist
		p.work = append(p.work, workItem{r: pooled, delta: added})
	}
	return len(added) > 0, nil
}

// headSubsumed reports whether the pooled rule's head already contains an
// atom equal to nh up to an injective renaming of existential variables
// (variables not occurring in the pooled body).
func headSubsumed(pooled *core.Rule, nh core.Atom) bool {
	bodyVars := pooled.UVars()
	isEV := func(t core.Term) bool { return t.IsVar() && !bodyVars.Has(t) }
	for _, h := range pooled.Head {
		if h.Relation != nh.Relation || len(h.Args) != len(nh.Args) || len(h.Annotation) != len(nh.Annotation) {
			continue
		}
		m := core.Subst{}
		used := make(core.TermSet)
		ok := true
		match := func(a, b core.Term) bool {
			if isEV(a) {
				if prev, bound := m[a]; bound {
					return prev == b
				}
				if isEV(b) && !used.Has(b) {
					m[a] = b
					used.Add(b)
					return true
				}
				return false
			}
			return a == b
		}
		for i := range nh.Args {
			if !match(nh.Args[i], h.Args[i]) {
				ok = false
				break
			}
		}
		if ok {
			for i := range nh.Annotation {
				if !match(nh.Annotation[i], h.Annotation[i]) {
					ok = false
					break
				}
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// bodyIso finds a variable bijection mapping src atoms onto dst atoms,
// trying the canonical numberings of both sides.
func bodyIso(src, dst []core.Atom, srcNums, dstNums []map[core.Term]int) (core.Subst, bool) {
	for _, sn := range srcNums {
		inv := make(map[int]core.Term)
		for _, dn := range dstNums {
			for v, i := range dn {
				inv[i] = v
			}
			ren := core.Subst{}
			ok := true
			for v, i := range sn {
				w, found := inv[i]
				if !found {
					ok = false
					break
				}
				ren[v] = w
			}
			if !ok {
				continue
			}
			if sameAtomSet(ren.ApplyAtoms(src), dst) {
				return ren, true
			}
		}
	}
	return nil, false
}

func sameAtomSet(a, b []core.Atom) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		if !core.ContainsAtom(b, x) {
			return false
		}
	}
	for _, x := range b {
		if !core.ContainsAtom(a, x) {
			return false
		}
	}
	return true
}

// normalizeRule deduplicates body/head atoms and recomputes the
// existential variable list (head variables not occurring in the body).
// It returns nil for rules with an empty head after deduplication.
func normalizeRule(r *core.Rule) *core.Rule {
	var body []core.Literal
	for _, l := range r.Body {
		dup := false
		for _, m := range body {
			if m.Negated == l.Negated && m.Atom.Equal(l.Atom) {
				dup = true
				break
			}
		}
		if !dup {
			body = append(body, l)
		}
	}
	var head []core.Atom
	for _, h := range r.Head {
		if !core.ContainsAtom(head, h) {
			head = append(head, h)
		}
	}
	if len(head) == 0 {
		return nil
	}
	uv := core.VarsOf(atomsOf(body))
	var exist []core.Term
	seen := make(core.TermSet)
	for _, h := range head {
		for _, t := range h.Args {
			if t.IsVar() && !uv.Has(t) && !seen.Has(t) {
				seen.Add(t)
				exist = append(exist, t)
			}
		}
	}
	return &core.Rule{Body: body, Head: head, Exist: exist, Label: r.Label}
}

func atomsOf(lits []core.Literal) []core.Atom {
	out := make([]core.Atom, len(lits))
	for i, l := range lits {
		out[i] = l.Atom
	}
	return out
}

// saturation computes Ξ(Σ), the closure of Σ under the rules of Figure 3.
// On budget exhaustion it returns the partial closure computed so far
// alongside the typed error; the stats are always valid.
func saturation(th *core.Theory, opts Options) ([]*core.Rule, *Stats, error) {
	tk := budget.Start(opts.Budget)
	defer tk.Stop()
	p := &pool{
		byKey:    make(map[string]*core.Rule),
		byBody:   make(map[string]*core.Rule),
		maxSize:  budget.Cap(opts.Budget, func(b *budget.T) int { return b.MaxRules }, defaultMaxRules),
		maxInfer: budget.Cap(opts.Budget, func(b *budget.T) int { return b.MaxSteps }, maxInferences),
		tk:       tk,
	}
	finish := func(err error) ([]*core.Rule, *Stats, error) {
		p.stats.ClosureRules = len(p.rules)
		return p.rules, &p.stats, err
	}
	p.stats.InputRules = len(th.Rules)
	for _, r := range th.Rules {
		if _, err := p.add(r); err != nil {
			return finish(err)
		}
	}
	for len(p.work) > 0 {
		// Worklist checkpoint: cancellation and deadline are observed
		// between items; the closure so far stays attached to the result.
		if err := tk.Check(); err != nil {
			return finish(fmt.Errorf("saturate: %w", err))
		}
		item := p.work[len(p.work)-1]
		p.work = p.work[:len(p.work)-1]
		if err := p.inferFrom(item); err != nil {
			return finish(err)
		}
	}
	return finish(nil)
}

// inferFrom applies every inference rule with the item's rule as one
// premise, against the current pool.
func (p *pool) inferFrom(item workItem) error {
	r := item.r
	// Figure 3, first rule: head projection to atoms without existential
	// variables.
	ev := r.EVarSet()
	for _, a := range r.Head {
		hasEV := false
		for v := range a.Vars() {
			if ev.Has(v) {
				hasEV = true
				break
			}
		}
		if !hasEV {
			if _, err := p.add(&core.Rule{Body: r.Body, Head: []core.Atom{a}}); err != nil {
				return err
			}
		}
	}
	// Figure 3, third rule: variable specializations g(α) → g(β). Merging
	// one pair of body variables at a time generates, under closure, every
	// endomorphism image up to renaming. Specializing Datalog rules is
	// subsumed by the homomorphism search of the composition rule, so only
	// existential rules are specialized.
	if len(r.Exist) > 0 {
		uv := r.UVars().Sorted()
		for _, x := range uv {
			for _, y := range uv {
				if x == y {
					continue
				}
				g := core.Subst{x: y}
				if _, err := p.add(g.ApplyRule(r)); err != nil {
					return err
				}
			}
		}
	}
	// Figure 3, second rule: composition with a Datalog rule. Only
	// compositions whose left premise is existential and whose γ2 match
	// covers an atom with existential variables can derive consequences
	// that bottom-up evaluation of dat(Σ) would not reproduce itself (any
	// purely ground composition is replayed at evaluation time by the
	// Datalog premise, which stays in dat(Σ)). Restricting to those keeps
	// the closure consequence-driven.
	snapshot := p.rules
	for _, other := range snapshot {
		if len(r.Exist) > 0 && len(other.Exist) == 0 {
			if err := p.compose(r, other, item.delta); err != nil {
				return err
			}
		}
		if len(r.Exist) == 0 && len(other.Exist) > 0 {
			// A newly seen Datalog rule composes against the full heads.
			if err := p.compose(other, r, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// compose applies the second inference rule of Figure 3 with left premise
// α→β and right Datalog premise γ1∧γ2→δ: for every homomorphism h from a
// subset γ2 of the right body into β whose completion maps the remaining
// γ1 variables into vars(α), add α ∧ h(γ1) → β ∧ h(δ).
// deltaBeta, when non-nil, restricts compositions to homomorphisms whose
// γ2 match touches at least one of these head atoms.
func (p *pool) compose(left, right *core.Rule, deltaBeta []core.Atom) error {
	if left == right {
		right = right.Clone()
	}
	// Standardize the right rule apart.
	ren := core.Subst{}
	taken := left.UVars()
	taken.AddAll(left.EVarSet())
	for v := range right.UVars() {
		ren[v] = core.FreshVar("r_"+v.Name+"_", taken)
		taken.Add(ren[v])
	}
	right = ren.ApplyRule(right)

	beta := left.Head
	rbody := right.PositiveBody()

	inDelta := func(b core.Atom) bool {
		if deltaBeta == nil {
			return true
		}
		return core.ContainsAtom(deltaBeta, b)
	}
	// Enumerate homomorphisms of subsets γ2 ⊆ rbody into β, extending to
	// full maps of the right-rule variables by assigning leftover
	// variables to vars(α). touched tracks whether the match uses a delta
	// atom; with a delta restriction, matches over old atoms only were
	// already explored when those atoms were new. One substitution map is
	// threaded through the whole enumeration, with trail-based undo
	// (hom.MatchInPlace) instead of cloning at every branch; g1 marks the
	// atoms assigned to γ1.
	s := core.Subst{}
	g1 := make([]bool, len(rbody))
	var assign func(i int, touched bool) error
	assign = func(i int, touched bool) error {
		if i == len(rbody) {
			if !touched && deltaBeta != nil {
				return nil
			}
			return p.emitComposition(left, right, s, g1)
		}
		atom := rbody[i]
		// Option 1: atom ∈ γ2, matched against some head atom of left.
		for _, b := range beta {
			if atom.Relation != b.Relation ||
				len(atom.Args) != len(b.Args) || len(atom.Annotation) != len(b.Annotation) {
				continue
			}
			if trail, ok := hom.MatchInPlace(s.ApplyAtom(atom), b, s); ok {
				if err := assign(i+1, touched || inDelta(b)); err != nil {
					return err
				}
				for _, v := range trail {
					delete(s, v)
				}
			}
		}
		// Option 2: atom ∈ γ1; its variables must end up in vars(α),
		// handled at emission.
		g1[i] = true
		err := assign(i+1, touched)
		g1[i] = false
		return err
	}
	return assign(0, false)
}

// emitComposition finishes a composition: leftover right-rule variables
// (those of γ1 atoms not bound by the γ2 match) are mapped into vars(α)
// in every possible way, then the derived rule is added.
func (p *pool) emitComposition(left, right *core.Rule, s core.Subst, g1 []bool) error {
	rbody := right.PositiveBody()
	var gamma1 []core.Atom
	evarTouched := false
	lev := left.EVarSet()
	for i, a := range rbody {
		if g1[i] {
			gamma1 = append(gamma1, a)
			continue
		}
		for v := range s.ApplyAtom(a).Vars() {
			if lev.Has(v) {
				evarTouched = true
			}
		}
	}
	// Require the γ2 match to involve an existential variable; otherwise
	// the composition is reproducible at evaluation time.
	if !evarTouched {
		return nil
	}
	// Collect unbound variables of γ1 and δ. Variables of δ not bound and
	// not occurring in γ1∧γ2 are right-rule frontier variables that must
	// be bound by the body, so after binding γ1 everything of δ is bound.
	unbound := make(core.TermSet)
	for _, a := range gamma1 {
		for v := range a.Vars() {
			if _, ok := s[v]; !ok {
				unbound.Add(v)
			}
		}
	}
	alphaVars := left.UVars().Sorted()
	targets := alphaVars
	vars := unbound.Sorted()
	// Every unbound γ1 variable maps into vars(α).
	var rec func(i int, s core.Subst) error
	rec = func(i int, s core.Subst) error {
		if i == len(vars) {
			// Verify the side condition vars(h(γ1)) ⊆ vars(α).
			for _, a := range gamma1 {
				for v := range s.ApplyAtom(a).Vars() {
					if !left.UVars().Has(v) {
						return nil
					}
				}
			}
			body := append([]core.Literal(nil), left.Body...)
			newBody := false
			for _, a := range gamma1 {
				lit := core.Pos(s.ApplyAtom(a))
				dup := false
				for _, l := range left.Body {
					if !l.Negated && l.Atom.Equal(lit.Atom) {
						dup = true
						break
					}
				}
				if !dup {
					newBody = true
				}
				body = append(body, lit)
			}
			head := append([]core.Atom(nil), left.Head...)
			newHead := false
			for _, d := range right.Head {
				nd := s.ApplyAtom(d)
				if !core.ContainsAtom(left.Head, nd) {
					newHead = true
				}
				head = append(head, nd)
			}
			if !newBody && !newHead {
				return nil // no-op: would merge nothing into the pooled rule
			}
			_, err := p.add(&core.Rule{Body: body, Head: head})
			return err
		}
		if len(targets) == 0 {
			return nil
		}
		for _, t := range targets {
			s2 := s.Clone()
			s2[vars[i]] = t
			if err := rec(i+1, s2); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0, s)
}
