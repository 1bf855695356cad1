package rewrite

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"guardedrules/internal/budget"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/normalize"
)

// Options bounds the expansion, which is worst-case exponential
// (Section 5.1).
type Options struct {
	// Budget, when non-nil, governs the run: its context/deadline cancels
	// the expansion between worklist items and every checkEvery
	// selections within one, its MaxRules caps the distinct rules of
	// ex(Σ) (the single-exponential bound of Theorem 1; 0 means 100,000),
	// and exhaustion returns the rules emitted so far alongside a typed
	// *budget.Error wrapping ErrRuleLimit, ErrCanceled or ErrDeadline.
	Budget *budget.T
}

const (
	// defaultMaxRules caps ex(Σ) when the budget leaves MaxRules at 0.
	defaultMaxRules = 100_000
	// maxRuleVars rejects rules under expansion with more universal
	// variables than this: the selection space is exponential in it.
	maxRuleVars = 9
	// checkEvery is the number of selections between budget checkpoints
	// inside one rule, whose selections can number hundreds of thousands.
	checkEvery = 256
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

// xrule is a normal rule of ex(Σ) in id space: its body atoms, then its
// one head atom. A generated rule shares the variable table of the input
// rule it descends from, whose universal variables are 0..nu-1 in name
// order (the paper's fixed enumeration of variables), so sorting ids
// sorts names.
type xrule struct {
	atoms []core.IDAtom
	vars  []core.Term
	nu    int
	label string
	src   *core.Rule // the input rule itself; nil when generated
	// final marks a rule that rew(Σ) leaves as it is: a guarded rule, or
	// safe Datalog passed through (Definition 14).
	final bool

	// Variable masks: per body atom its arguments and all its variables;
	// the universal variables, frontier and head; fg(σ), the first body
	// atom containing the frontier (the rule is expanded only when it has
	// one); and the paper's progress measure, the universal variables
	// outside the best frontier guard (0 if guarded).
	arg, all            []uint16
	uv, fv, headAll, fg uint16
	measure             int
}

func (x *xrule) body() []core.IDAtom { return x.atoms[:len(x.atoms)-1] }
func (x *xrule) head() core.IDAtom   { return x.atoms[len(x.atoms)-1] }

// expander carries the expansion state. Relations are interned by key.
type expander struct {
	k        int // maximal relation arity of Σ
	rels     []core.RelKey
	relIDs   map[core.RelKey]int32
	termIDs  map[core.Term]int32 // constants, which only occur in facts
	cz       core.Canonizer
	byKey    map[string]bool
	rules    []*xrule
	work     []*xrule
	splits   map[string]bool // canonical split keys
	maxRules int
	tk       *budget.Tracker
	stats    Stats
}

// Expand computes ex(Σ) (Definition 12): rew(Σ) without the ACDom
// guards.
func Expand(th *core.Theory, opts Options) (*core.Theory, *Stats, error) {
	return expand(th, opts, false)
}

// Rewrite computes rew(Σ) (Definition 13 / Theorem 1 / Proposition 4)
// of a normal, nearly frontier-guarded theory: ex(Σ) with ACDom guards
// added to every non-guarded rule of the frontier-guarded part, while
// safe Datalog passes through (Definition 14). The result is nearly
// guarded and preserves the answers of every query (Σ, Q). On budget
// exhaustion the rules emitted so far come with the typed error; invalid
// input returns a nil theory.
func Rewrite(th *core.Theory, opts Options) (*core.Theory, *Stats, error) {
	return expand(th, opts, true)
}

func expand(th *core.Theory, opts Options, acdom bool) (*core.Theory, *Stats, error) {
	if !normalize.IsNormal(th) {
		return nil, nil, fmt.Errorf("rewrite: theory is not normal; call normalize.Normalize first")
	}
	e := &expander{
		k:        th.MaxArity(),
		relIDs:   make(map[core.RelKey]int32),
		termIDs:  make(map[core.Term]int32),
		byKey:    make(map[string]bool),
		splits:   make(map[string]bool),
		maxRules: budget.Cap(opts.Budget, func(b *budget.T) int { return b.MaxRules }, defaultMaxRules),
		tk:       budget.Start(opts.Budget),
		stats:    Stats{InputRules: len(th.Rules)},
	}
	defer e.tk.Stop()
	err := e.run(th)
	if err != nil && !budget.IsBudget(err) {
		return nil, nil, err
	}
	e.stats.ExpansionRules = len(e.rules)
	return e.theory(acdom), &e.stats, err
}

func (e *expander) run(th *core.Theory) error {
	ap := classify.AffectedPositions(th)
	for _, r := range th.Rules {
		if r.HasNegation() {
			return fmt.Errorf("rewrite: rule %s has negation", r.Label)
		}
		fg, guarded := classify.IsFrontierGuarded(r), classify.IsGuarded(r)
		if !fg {
			if len(classify.Unsafe(r, ap)) > 0 || len(r.Exist) > 0 {
				return fmt.Errorf("rewrite: rule %s is neither frontier-guarded nor safe Datalog (theory is not nearly frontier-guarded)", r.Label)
			}
			// Definition 14: σ ∈ Σd needs no rewriting.
			e.stats.Passthrough++
		}
		if err := e.add(e.fromCore(r, guarded || !fg), fg && !guarded && r.IsDatalog()); err != nil {
			return err
		}
	}
	if err := e.addBagRules(th.Relations()); err != nil {
		return err
	}
	for len(e.work) > 0 {
		// Worklist checkpoint: cancellation and deadline are observed
		// between rules; the expansion so far stays attached.
		if err := e.tk.Check(); err != nil {
			return fmt.Errorf("rewrite: %w", err)
		}
		x := e.work[len(e.work)-1]
		e.work = e.work[:len(e.work)-1]
		if err := e.expandRule(x); err != nil {
			return err
		}
	}
	return nil
}

// add inserts a rule into the expansion, deduplicated up to renaming, and
// enqueues it for further rewriting when enqueue is true.
func (e *expander) add(x *xrule, enqueue bool) error {
	k := e.cz.RuleKey(x.body(), x.atoms[len(x.atoms)-1:], int32(len(x.vars)))
	if e.byKey[k] {
		return nil
	}
	if len(e.rules) >= e.maxRules {
		return fmt.Errorf("rewrite: expansion exceeded %d rules: %w",
			e.maxRules, e.tk.Exhausted(budget.ErrRuleLimit))
	}
	e.byKey[k] = true
	e.rules = append(e.rules, x)
	e.tk.AddRules(1)
	if enqueue {
		e.work = append(e.work, x)
	}
	return nil
}

// derive adds a rule generated from σ. It is enqueued when it is
// frontier-guarded but not guarded and its measure is below bound.
func (e *expander) derive(from *xrule, suffix string, bound int, atoms ...core.IDAtom) error {
	x := e.masks(&xrule{atoms: atoms, vars: from.vars, nu: from.nu, label: from.label + suffix})
	x.final = x.measure == 0
	return e.add(x, x.measure > 0 && x.measure <= bits.OnesCount16(x.uv) && x.measure < bound)
}

// expandRule applies every rc- and rnc-rewriting of the non-guarded
// Datalog rule σ (Definition 12).
func (e *expander) expandRule(x *xrule) error {
	if x.nu > maxRuleVars {
		return fmt.Errorf("rewrite: rule %s has more than %d variables", x.label, maxRuleVars)
	}
	return selections(x.uv, e.k, func(s *selection) error {
		if e.stats.Selections++; e.stats.Selections%checkEvery == 0 {
			if err := e.tk.Check(); err != nil {
				return fmt.Errorf("rewrite: %w", err)
			}
		}
		c := x.cover(s.dom)
		for _, rc := range [2]bool{true, false} {
			keep, ok := x.admits(s, c, rc)
			if !ok {
				continue
			}
			sp := e.buildSplit(x, s, rc, keep)
			// Each split is processed once globally: a later isomorphic
			// split would emit exactly the same pair up to renaming.
			key := e.canonSplit(x, &sp)
			if e.splits[key] {
				continue
			}
			e.splits[key] = true
			e.stats.Splits++
			h := core.IDAtom{Rel: e.relID(core.RelKey{Name: "Aux_" + strconv.Itoa(e.stats.Splits),
				AnnArity: len(sp.hAnn), Arity: len(sp.hArgs)}), Args: slices.Concat(sp.hAnn, sp.hArgs)}
			emit := e.emitRNC
			if rc {
				emit = e.emitRC
			}
			if err := emit(x, sp, h); err != nil {
				return err
			}
		}
		return nil
	})
}

// emitRC adds the rc-rewriting pair (Definition 10): the guarded rule
// σ′ = Bag(~x) ∧ µ(cov) → H(~y) and σ′′ = H(~y) ∧ µ(body\cov) → µ(head).
// Bag(~x) plays the paper's guard R(~x) from Σ: a bag fact witnesses that
// the variables' images co-occur in one chase atom (see addBagRules).
func (e *expander) emitRC(x *xrule, sp split, h core.IDAtom) error {
	guard, ok := e.bagAtom(e.argMasks(sp.removed) | e.argMask(h))
	if !ok {
		return nil
	}
	if err := e.derive(x, "_rc1", 0, slices.Concat([]core.IDAtom{guard}, sp.removed, []core.IDAtom{h})...); err != nil {
		return err
	}
	return e.derive(x, "_rc2", x.measure, slices.Concat([]core.IDAtom{h}, sp.kept, []core.IDAtom{sp.head})...)
}

// emitRNC adds the rnc-rewriting pair (Definition 11): the
// frontier-guarded rule σ′ = Bag(~y, z) ∧ µ(body\cov) → H(~y) for every
// projected variable z of µ(body\cov) (condition (b)), and the guarded
// rule σ′′ = Bag(vars(σ′′)) ∧ H(~y) ∧ µ(cov) → µ(head).
func (e *expander) emitRNC(x *xrule, sp split, h core.IDAtom) error {
	keep := e.argMask(h)
	sigma1 := func(guard ...core.IDAtom) error {
		return e.derive(x, "_rnc1", x.measure, slices.Concat(guard, sp.removed, []core.IDAtom{h})...)
	}
	// When µ(body\cov) already frontier-guards ~y, σ′ needs no additional
	// guard atom (the paper's Example 6); the guard-free rule subsumes
	// every guarded variant.
	if slices.ContainsFunc(sp.removed, func(a core.IDAtom) bool { return keep&^e.argMask(a) == 0 }) {
		if err := sigma1(); err != nil {
			return err
		}
	} else {
		for zs := e.argMasks(sp.removed) &^ keep; zs != 0; zs &= zs - 1 {
			if guard, ok := e.bagAtom(keep | zs&-zs); ok {
				if err := sigma1(guard); err != nil {
					return err
				}
			}
		}
	}
	// σ′′ needs a guard over every variable of σ′′.
	guard, ok := e.bagAtom(keep | e.argMasks(sp.kept) | e.argMask(sp.head))
	if !ok {
		return nil
	}
	return e.derive(x, "_rnc2", 0, slices.Concat([]core.IDAtom{guard, h}, sp.kept, []core.IDAtom{sp.head})...)
}

func (e *expander) argMasks(atoms []core.IDAtom) uint16 {
	var m uint16
	for _, a := range atoms {
		m |= e.argMask(a)
	}
	return m
}

// bagAtom returns the guard NodeBag_j(~v) over need in name order, or
// ok=false when no guard of Σ could cover more than k variables.
func (e *expander) bagAtom(need uint16) (core.IDAtom, bool) {
	j := bits.OnesCount16(need)
	if j > e.k {
		return core.IDAtom{}, false
	}
	e.stats.GuardVariants++
	a := core.IDAtom{Rel: e.relID(core.RelKey{Name: "NodeBag_" + strconv.Itoa(j), Arity: j})}
	for ; need != 0; need &= need - 1 {
		a.Args = append(a.Args, int32(bits.TrailingZeros16(need)))
	}
	return a, true
}

// addBagRules adds the bag rules of every relation of Σ: for each R/n
// and each injective tuple (i1,...,ij) of argument positions,
// R(x1,...,xn) → NodeBag_j(x_i1,...,x_ij). All bag rules are guarded.
func (e *expander) addBagRules(rels []core.RelKey) error {
	for _, rk := range rels {
		if rk.Name == core.ACDom || rk.Arity == 0 {
			continue
		}
		src, vars := core.IDAtom{Rel: e.relID(rk)}, []core.Term{} // a1..am, then x1..xn
		for i := range rk.AnnArity + rk.Arity {
			src.Args = append(src.Args, int32(i))
			if i < rk.AnnArity {
				vars = append(vars, core.Var(fmt.Sprintf("a%d", i+1)))
			} else {
				vars = append(vars, core.Var(fmt.Sprintf("x%d", i-rk.AnnArity+1)))
			}
		}
		// The tuples of each length j in lexicographic order.
		tuples := [][]int32{nil}
		for j := 1; j <= min(rk.Arity, e.k); j++ {
			var next [][]int32
			for _, t := range tuples {
				for c := int32(rk.AnnArity); c < int32(len(vars)); c++ {
					if !slices.Contains(t, c) {
						next = append(next, append(slices.Clip(t), c))
					}
				}
			}
			for _, t := range next {
				head := core.IDAtom{Rel: e.relID(core.RelKey{Name: "NodeBag_" + strconv.Itoa(j), Arity: j}), Args: t}
				x := &xrule{atoms: []core.IDAtom{src, head}, vars: vars, label: "bag_" + rk.Name, final: true}
				if err := e.add(x, false); err != nil {
					return err
				}
			}
			tuples = next
		}
	}
	return nil
}

func (e *expander) relID(rk core.RelKey) int32 {
	if _, ok := e.relIDs[rk]; !ok {
		e.relIDs[rk] = int32(len(e.rels))
		e.rels = append(e.rels, rk)
	}
	return e.relIDs[rk]
}

// fromCore converts an input rule into id space, its universal variables
// first, in name order.
func (e *expander) fromCore(r *core.Rule, final bool) *xrule {
	x := &xrule{vars: r.UVars().Sorted(), label: r.Label, src: r, final: final}
	x.nu = len(x.vars)
	ids := make(map[core.Term]int32, x.nu)
	for i, v := range x.vars {
		ids[v] = int32(i)
	}
	for _, a := range r.AllAtoms() {
		out := core.IDAtom{Rel: e.relID(a.Key())}
		for _, t := range slices.Concat(a.Annotation, a.Args) {
			if _, ok := ids[t]; !ok && t.IsVar() {
				ids[t], x.vars = int32(len(x.vars)), append(x.vars, t)
			} else if !ok {
				if _, ok := e.termIDs[t]; !ok {
					e.termIDs[t] = -int32(len(e.termIDs)) - 1
				}
				ids[t] = e.termIDs[t]
			}
			out.Args = append(out.Args, ids[t])
		}
		x.atoms = append(x.atoms, out)
	}
	return e.masks(x)
}

// theory converts ex(Σ) out of id space, with acdom into rew(Σ): every
// rule neither guarded nor passed through gets ACDom guards (Def. 13).
func (e *expander) theory(acdom bool) *core.Theory {
	out := core.NewTheory()
	for _, x := range e.rules {
		r := x.src
		if r == nil {
			lits := make([]core.Literal, len(x.atoms))
			for i, a := range x.atoms {
				rk, terms := e.rels[a.Rel], make([]core.Term, len(a.Args))
				for j, v := range a.Args {
					terms[j] = x.vars[v]
				}
				lits[i].Atom = core.Atom{Relation: rk.Name, Args: terms[rk.AnnArity:]}
				if rk.AnnArity > 0 {
					lits[i].Atom.Annotation = terms[:rk.AnnArity:rk.AnnArity]
				}
			}
			r = &core.Rule{Body: lits[: len(lits)-1 : len(lits)-1], Head: []core.Atom{lits[len(lits)-1].Atom}, Label: x.label}
		}
		if r.Span.IsZero() {
			r.Span = core.GeneratedSpan("fg-expansion")
		}
		if acdom && !x.final {
			if x.src != nil {
				r = r.Clone()
			}
			for _, v := range r.UVars().Sorted() {
				r.Body = append(r.Body, core.Pos(core.NewAtom(core.ACDom, v)))
			}
		}
		out.Add(r)
	}
	return out
}
