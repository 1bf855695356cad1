// Package chase implements the (oblivious and restricted) chase of a
// database with respect to a theory (Section 2 of the paper), with fair
// breadth-first scheduling, and the chase-tree construction of Section 4.
//
// The chase of an existential theory is infinite in general, so every run
// is bounded two ways. Options.MaxDepth is the semantic bound of the
// paper's Section 7: triggers that would create deeper nulls are skipped
// and the run reports Truncated with Reason budget.ErrDepthLimit and a
// nil error. Resource ceilings (facts, rounds, steps, deadline) live in
// Options.Budget only; hitting one — an explicit ceiling or the engine
// default of 1,000,000 facts and 10,000 rounds — returns the partial
// Result with a typed *budget.Error. Either way the result is a sound
// under-approximation of chase(Σ, D): every returned atom is entailed.
// EXPERIMENTS.md justifies, per experiment, the depth at which the
// relevant ground consequences are complete.
//
// The engine runs in the database's interned id space (DESIGN.md has the
// full mapping to the paper's trigger definition): rule bodies are
// compiled once to hom.CAtom slot programs, a trigger — the paper's pair
// (σ, h) of a rule and a body homomorphism — is represented as the packed
// uint32 id tuple of h's images over the rule's variables, and the
// trigger memo is a (ruleID, id-tuple) hash set. Because interned ids are
// bijective with terms, distinct triggers can never collide — unlike the
// previous name-serialized trigger keys, where a separator byte inside a
// constant name could conflate two triggers and silently drop one
// (see triggerkey_regression_test.go).
package chase

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strconv"

	"guardedrules/internal/budget"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/hom"
)

// Variant selects the chase flavor.
type Variant int

const (
	// Oblivious applies every trigger once, regardless of whether the head
	// is already satisfied (the chase of the paper, Section 2).
	Oblivious Variant = iota
	// Restricted applies a trigger only when the head is not yet satisfied
	// by an extension of the trigger homomorphism. It produces a smaller,
	// homomorphically equivalent result.
	Restricted
)

// Options configures a chase run.
type Options struct {
	Variant Variant
	// MaxDepth bounds the null-creation depth: a null created by a trigger
	// whose image contains terms of depth d gets depth d+1; constants have
	// depth 0. Triggers that would create nulls deeper than MaxDepth are
	// skipped (and the run marked truncated, with a nil error). 0 means
	// unbounded.
	MaxDepth int
	// Budget governs the run: its context/deadline cancels the chase
	// between trigger applications, and its ceilings bound it. MaxFacts
	// caps the database size (a trigger application stops before any
	// added fact, derived ACDom facts included, would push Len beyond
	// it); MaxRounds caps breadth-first rounds; MaxSteps caps trigger
	// applications. Nil, or a ceiling left at 0, means the default of
	// 1,000,000 facts and 10,000 rounds (steps are unbounded). Exhausting
	// any ceiling returns the partial Result with a typed *budget.Error.
	Budget *budget.T
}

// Default ceilings, applied when the budget leaves them at 0.
const (
	defaultMaxFacts  = 1_000_000
	defaultMaxRounds = 10_000
)

// ceilings resolves the run's fact, round and step ceilings.
func (o Options) ceilings() (facts, rounds, steps int) {
	facts = budget.Cap(o.Budget, func(b *budget.T) int { return b.MaxFacts }, defaultMaxFacts)
	rounds = budget.Cap(o.Budget, func(b *budget.T) int { return b.MaxRounds }, defaultMaxRounds)
	return facts, rounds, budget.Cap(o.Budget, func(b *budget.T) int { return b.MaxSteps }, 0)
}

// Result is the outcome of a chase run.
type Result struct {
	// DB is the chase database, including the input facts.
	DB *database.Database
	// Saturated is true when a fixpoint was reached: no applicable trigger
	// remains, so DB is exactly chase(Σ, D) (up to the variant).
	Saturated bool
	// Truncated is true when the depth bound or a budget ceiling was hit,
	// or the run was canceled.
	Truncated bool
	// Reason is the budget sentinel explaining a truncation
	// (budget.ErrDepthLimit, budget.ErrFactLimit, budget.ErrRoundLimit,
	// budget.ErrCanceled, ...). Nil when the run saturated.
	Reason error
	// Usage is the resource-usage snapshot of the run.
	Usage budget.Usage
	// Steps is the number of trigger applications.
	Steps int
	// Rounds is the number of breadth-first rounds that applied at least
	// one trigger. A saturating run's final round — which finds no
	// applicable trigger — is not counted, and a run truncated by a round
	// ceiling reports the ceiling itself (it executed that many productive
	// rounds), not ceiling-1.
	Rounds int
	// Depth maps each created null to its creation depth.
	Depth map[core.Term]int
}

// Entails reports whether the ground atom was derived. Only meaningful as
// a complete decision when Saturated is true; on truncated runs a true
// answer is still sound.
func (r *Result) Entails(a core.Atom) bool { return r.DB.Has(a) }

// hookFn observes every newly derived atom together with the rule and
// the (restricted, exist-free) substitution of the trigger that produced
// it; used by the chase-tree and provenance constructions. The subst is
// owned by the engine but stable for the duration of the call.
type hookFn func(r *core.Rule, sub core.Subst, atom core.Atom)

// runFn is the signature shared by the id-space engine (run) and the
// term-space reference engine (legacyRun); RunTree/RunWithProvenance are
// parameterized over it so the differential suite can drive both.
type runFn func(th *core.Theory, d0 *database.Database, opts Options, hook hookFn) (*Result, error)

// unboundID marks a rule variable with no binding in a trigger tuple
// (a variable occurring only in negated literals that the search never
// bound). Interned ids are dense from 0, so the sentinel is unreachable
// for any realistic database.
const unboundID = ^uint32(0)

// pollInterval is how many candidate matches a work item processes
// between cancellation polls.
const pollInterval = 64

// crule is a rule compiled to the id space: its positive body, negated
// atoms and head atoms as slot programs over one shared variable-slot
// space, plus the slot of every rule variable (the trigger tuple layout)
// and of every existential variable.
type crule struct {
	rule  *core.Rule
	idx   int
	body  []hom.CAtom // positive body, original order
	neg   []hom.CAtom // negated atoms, body order
	heads []hom.CAtom
	nvars int
	// headEpoch is the intern epoch the heads were last resolved at;
	// headSatisfied skips the re-resolution while it is current.
	headEpoch int
	// ruleVars are the rule's universal and annotation variables in
	// sorted order; a trigger is the packed tuple of their images.
	// varSlots[i] is the slot of ruleVars[i] (-1 when the variable has no
	// slot, which cannot happen for safe rules).
	ruleVars []core.Term
	varSlots []int
	// existSlots[i] is the slot of rule.Exist[i] in the heads (-1 when
	// the existential variable occurs in no head atom; the null is still
	// minted, matching the term-space engine).
	existSlots []int
}

func (cr *crule) resolve(db *database.Database) {
	for i := range cr.body {
		cr.body[i].Resolve(db)
	}
	for i := range cr.neg {
		cr.neg[i].Resolve(db)
	}
}

// trig is a collected trigger: a compiled rule and the packed id tuple
// of its variable images (width len(cr.ruleVars)).
type trig struct {
	cr  *crule
	ids []uint32
}

// deltaGroup is one relation's slice of the previous round's delta: n
// packed id tuples of width w, in derivation order. For ACDom/1 the
// tuples replay the constants of every delta fact (see prepareDelta).
type deltaGroup struct {
	w   int
	n   int
	ids []uint32
}

// engine carries the mutable state of a run.
type engine struct {
	opts       Options
	db         *database.Database
	depth      map[core.Term]int // public: null term -> creation depth
	depthID    []int32           // by interned id, 0 for input terms
	applied    *triggerSet       // persistent trigger memo
	nulls      int
	steps      int
	trunc      bool
	overBudget bool
	reason     error // budget sentinel recorded at the first truncation
	maxFacts   int
	rules      []crule
	// ruleEpoch is the intern epoch the rules' bodies were last resolved
	// at (-1 = never); collect skips the per-round re-resolution while no
	// new term has been interned.
	ruleEpoch  int
	st         *hom.State // single-threaded state for admissible/apply
	hook       hookFn
	roundAdded []core.Atom // facts added this round, in insertion order
	noteFn     func(core.Atom)
	groups     map[core.RelKey]*deltaGroup
}

// Run chases d0 with th. The input database is not modified. Negated body
// literals are evaluated against the current database; this is only
// meaningful when the negated relations are never derived by th itself
// (as in a single stratum of a stratified theory).
func Run(th *core.Theory, d0 *database.Database, opts Options) (*Result, error) {
	return run(th, d0, opts, nil)
}

func newEngine(th *core.Theory, d0 *database.Database, opts Options, hook hookFn) *engine {
	e := &engine{
		opts:    opts,
		db:      d0.Clone(),
		depth:   make(map[core.Term]int),
		applied: newTriggerSet(),
		hook:    hook,
		rules:   make([]crule, len(th.Rules)),
	}
	e.ruleEpoch = -1
	maxNvars := 0
	for i, r := range th.Rules {
		cr := &e.rules[i]
		cr.rule, cr.idx = r, i
		cr.headEpoch = -1
		slots := make(map[core.Term]int)
		for _, a := range r.PositiveBody() {
			cr.body = append(cr.body, hom.Compile(a, slots))
		}
		for _, l := range r.Body {
			if l.Negated {
				cr.neg = append(cr.neg, hom.Compile(l.Atom, slots))
			}
		}
		for _, h := range r.Head {
			cr.heads = append(cr.heads, hom.Compile(h, slots))
		}
		cr.nvars = len(slots)
		keep := r.UVars()
		for _, l := range r.Body {
			keep.AddAll(l.Atom.AnnVars())
		}
		cr.ruleVars = keep.Sorted()
		cr.varSlots = make([]int, len(cr.ruleVars))
		for j, v := range cr.ruleVars {
			if s, ok := slots[v]; ok {
				cr.varSlots[j] = s
			} else {
				cr.varSlots[j] = -1
			}
		}
		cr.existSlots = make([]int, len(r.Exist))
		for j, v := range r.Exist {
			if s, ok := slots[v]; ok {
				cr.existSlots[j] = s
			} else {
				cr.existSlots[j] = -1
			}
		}
		if cr.nvars > maxNvars {
			maxNvars = cr.nvars
		}
	}
	e.st = hom.NewState(e.db, maxNvars)
	e.noteFn = func(f core.Atom) { e.roundAdded = append(e.roundAdded, f) }
	return e
}

func run(th *core.Theory, d0 *database.Database, opts Options, hook hookFn) (res *Result, err error) {
	// Engine boundary: a panic anywhere in the run surfaces as one failed
	// request, never a dead process. No partial result: a mid-application
	// panic may leave the working database half-updated, unlike the
	// discarded-buffer cancellation path.
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, fmt.Errorf("chase: %w", &budget.PanicError{Value: v, Stack: debug.Stack()})
		}
	}()
	if err := th.CheckSafe(); err != nil {
		return nil, fmt.Errorf("chase: %w", err)
	}
	e := newEngine(th, d0, opts, hook)
	tk := budget.Start(opts.Budget)
	defer tk.Stop()
	var maxRounds, maxSteps int
	e.maxFacts, maxRounds, maxSteps = opts.ceilings()

	res = &Result{Depth: e.depth}
	finish := func(err error) (*Result, error) {
		res.DB = e.db
		res.Steps = e.steps
		res.Truncated = e.trunc
		res.Saturated = !e.trunc
		res.Reason = e.reason
		res.Usage = tk.Usage()
		return res, err
	}
	// Delta-driven rounds: round 0 considers all facts; later rounds only
	// triggers whose body uses at least one fact derived in the previous
	// round.
	for first := true; ; first = false {
		tk.SetRounds(res.Rounds)
		// Round checkpoint: cancellation and deadline are observed here and
		// between trigger applications below; the partial database (all
		// completed applications) stays attached to the result.
		if err := tk.Check(); err != nil {
			e.truncate(reasonOf(err))
			return finish(err)
		}
		if res.Rounds >= maxRounds {
			e.truncate(budget.ErrRoundLimit)
			return finish(tk.Exhausted(budget.ErrRoundLimit))
		}
		trs := e.collect(first, tk)
		if len(trs) == 0 {
			break
		}
		e.roundAdded = e.roundAdded[:0]
		counted := false
		for _, tr := range trs {
			if err := tk.Check(); err != nil {
				e.truncate(reasonOf(err))
				return finish(err)
			}
			if e.db.Len() >= e.maxFacts {
				e.truncate(budget.ErrFactLimit)
				return finish(tk.Exhausted(budget.ErrFactLimit))
			}
			if maxSteps > 0 && e.steps >= maxSteps {
				e.truncate(budget.ErrStepLimit)
				return finish(tk.Exhausted(budget.ErrStepLimit))
			}
			before := len(e.roundAdded)
			fired, err := e.apply(tr)
			if err != nil {
				return finish(fmt.Errorf("chase: %w", err))
			}
			tk.AddFacts(len(e.roundAdded) - before)
			tk.AddSteps(1)
			if fired && !counted {
				counted = true
				res.Rounds++
			}
			if e.overBudget {
				return finish(tk.Exhausted(budget.ErrFactLimit))
			}
		}
		if len(e.roundAdded) == 0 {
			break
		}
		e.prepareDelta()
	}
	return finish(nil)
}

// truncate marks the run truncated, recording the first reason.
func (e *engine) truncate(reason error) {
	e.trunc = true
	if e.reason == nil {
		e.reason = reason
	}
}

// reasonOf extracts the sentinel reason of a budget error, for recording
// in Result.Reason.
func reasonOf(err error) error {
	var be *budget.Error
	if errors.As(err, &be) {
		return be.Reason
	}
	return err
}

// unit is one trigger-collection work item: a full search of a rule's
// body (round 0, pos < 0) or a (rule × body position) semi-naive item
// whose pattern atom must match one of the delta tuples of g.
type unit struct {
	cr  *crule
	pos int
	g   *deltaGroup
}

// collect gathers the applicable triggers for this round. Each work item
// enumerates candidate trigger tuples against the frozen database into
// its own buffer; the buffers are then merged in item order, which
// deduplicates and filters for admissibility.
func (e *engine) collect(first bool, tk *budget.Tracker) []trig {
	var units []unit
	for i := range e.rules {
		cr := &e.rules[i]
		if first {
			units = append(units, unit{cr: cr, pos: -1})
			continue
		}
		for pi := range cr.body {
			if g := e.groups[cr.body[pi].RK]; g != nil {
				units = append(units, unit{cr: cr, pos: pi, g: g})
			}
		}
	}
	// Re-resolve compiled constants against the frozen database once,
	// before the search — skipped entirely when no new term was interned
	// since the last resolve: every TermID answer is then unchanged.
	if ep := e.db.InternEpoch(); ep != e.ruleEpoch {
		for i := range e.rules {
			e.rules[i].resolve(e.db)
		}
		e.ruleEpoch = ep
	}
	bufs := make([][]uint32, len(units))
	counts := make([]int, len(units))
	for u := range units {
		if tk.Canceled() {
			break // the run loop's next checkpoint reports it
		}
		bufs[u], counts[u] = e.runUnit(units[u], first, tk.Canceled)
	}
	// Merge in unit order: global dedup (the per-round seen set, marked
	// before admissibility like the trigger memo) then admissibility.
	seen := newTriggerSet()
	var out []trig
	for ui := range units {
		cr := units[ui].cr
		w := len(cr.varSlots)
		buf := bufs[ui]
		for k := 0; k < counts[ui]; k++ {
			ids := buf[k*w : k*w+w]
			if !seen.add(uint32(cr.idx), ids) {
				continue
			}
			if e.admissible(cr, ids) {
				out = append(out, trig{cr: cr, ids: ids})
			}
		}
	}
	return out
}

// runUnit enumerates one work item's candidate triggers into a packed
// buffer. The database and compiled rules are only read; all mutable
// search state is local.
func (e *engine) runUnit(u unit, first bool, canceled func() bool) ([]uint32, int) {
	cr := u.cr
	st := hom.NewState(e.db, cr.nvars)
	var buf []uint32
	count := 0
	polls := 0
	var scratch [64]byte
	leaf := func() bool {
		if polls++; polls%pollInterval == 0 && canceled() {
			return false // abort enumeration; the run loop observes the cancellation
		}
		// Negative literals: evaluated against the full current db.
		for j := range cr.neg {
			key, ok := st.PackApplied(scratch[:0], &cr.neg[j])
			if ok && e.db.SeenKey(cr.neg[j].RK, key) {
				return true
			}
		}
		for _, slot := range cr.varSlots {
			if slot >= 0 && st.Bd[slot] {
				buf = append(buf, st.B[slot])
			} else {
				buf = append(buf, unboundID)
			}
		}
		count++
		return true
	}
	if u.pos < 0 {
		if len(cr.body) == 0 {
			// Body-less rules fire once, in the first round.
			if first {
				leaf()
			}
			return buf, count
		}
		st.ForEach(cr.body, leaf)
		return buf, count
	}
	// Semi-naive: the pattern atom must match a delta tuple; the rest of
	// the body is searched over the full database.
	done := make([]bool, len(cr.body))
	done[u.pos] = true
	pa := &cr.body[u.pos]
	w := u.g.w
	for j := 0; j < u.g.n; j++ {
		mark := st.Mark()
		if st.Match(pa, u.g.ids[j*w:j*w+w]) {
			if !st.Search(cr.body, done, leaf) {
				st.Unwind(mark)
				break
			}
		}
		st.Unwind(mark)
	}
	return buf, count
}

// seed binds the trigger tuple's ids onto the shared state (unbound
// sentinel positions stay unbound); unseed undoes it.
func (e *engine) seed(cr *crule, ids []uint32) {
	for j, s := range cr.varSlots {
		if s >= 0 && ids[j] != unboundID {
			e.st.Bind(s, ids[j])
		}
	}
}

func (e *engine) unseed(cr *crule) {
	for _, s := range cr.varSlots {
		if s >= 0 {
			e.st.Unbind(s)
		}
	}
}

// admissible filters triggers per variant and depth budget.
func (e *engine) admissible(cr *crule, ids []uint32) bool {
	if e.applied.has(uint32(cr.idx), ids) {
		return false
	}
	if e.opts.Variant == Restricted && e.headSatisfied(cr, ids) {
		return false
	}
	if len(cr.rule.Exist) > 0 && e.opts.MaxDepth > 0 {
		d := 0
		for _, id := range ids {
			if id == unboundID {
				continue
			}
			if dd := e.depthOf(id); dd > d {
				d = dd
			}
		}
		if d+1 > e.opts.MaxDepth {
			// Depth is a semantic under-approximation bound, never an error:
			// record the truncation and skip the trigger.
			e.truncate(budget.ErrDepthLimit)
			return false
		}
	}
	return true
}

// headSatisfied reports whether the head of the trigger is already
// entailed: some extension of the trigger assignment (the existential
// slots stay free) maps the head into the database.
func (e *engine) headSatisfied(cr *crule, ids []uint32) bool {
	// The database grows between calls (triggers of the same round apply
	// one by one), so head constants may need re-resolving — but only
	// when a new term was actually interned since this rule's last
	// resolve, which the intern epoch tracks exactly.
	if ep := e.db.InternEpoch(); ep != cr.headEpoch {
		for i := range cr.heads {
			cr.heads[i].Resolve(e.db)
		}
		cr.headEpoch = ep
	}
	e.seed(cr, ids)
	ok := e.st.Exists(cr.heads)
	e.unseed(cr)
	return ok
}

// apply fires the trigger: existential variables become fresh nulls and
// the instantiated head atoms are added. It reports whether the trigger
// actually fired (was not memoized or pre-satisfied). Added facts are
// appended to e.roundAdded via the notify callback.
func (e *engine) apply(tr trig) (bool, error) {
	cr := tr.cr
	if e.applied.has(uint32(cr.idx), tr.ids) {
		return false, nil
	}
	// Re-check satisfaction for the restricted variant: an earlier trigger
	// in this round may have satisfied the head meanwhile.
	if e.opts.Variant == Restricted && e.headSatisfied(cr, tr.ids) {
		e.applied.add(uint32(cr.idx), tr.ids)
		return false, nil
	}
	e.applied.add(uint32(cr.idx), tr.ids)
	base := 0
	for _, id := range tr.ids {
		if id == unboundID {
			continue
		}
		if d := e.depthOf(id); d > base {
			base = d
		}
	}
	e.seed(cr, tr.ids)
	for j := range cr.rule.Exist {
		e.nulls++
		n := core.NewNull("n" + strconv.Itoa(e.nulls))
		id := e.db.InternTerm(n)
		e.setDepth(id, base+1)
		e.depth[n] = base + 1
		if s := cr.existSlots[j]; s >= 0 {
			e.st.Bind(s, id)
		}
	}
	e.steps++
	var sub core.Subst
	if e.hook != nil {
		sub = e.subOf(cr, tr.ids)
	}
	var applyErr error
	// AddNotify also surfaces the ACDom facts derived for fresh head
	// constants, so ACDom-reading rules see them in the next delta.
	for hi := range cr.heads {
		a := e.st.Materialize(&cr.heads[hi])
		// Enforce the fact ceiling per added fact (including the ACDom
		// facts this Add would derive): the database never exceeds it.
		if e.db.Len()+e.db.AddCost(a) > e.maxFacts {
			e.truncate(budget.ErrFactLimit)
			e.overBudget = true
			break
		}
		isNew, err := e.db.AddNotify(a, e.noteFn)
		if err != nil {
			applyErr = fmt.Errorf("rule %s: %w", cr.rule.Label, err)
			break
		}
		if isNew && e.hook != nil {
			e.hook(cr.rule, sub, a)
		}
	}
	e.unseed(cr)
	for _, s := range cr.existSlots {
		if s >= 0 {
			e.st.Unbind(s)
		}
	}
	return true, applyErr
}

// subOf materializes the trigger's substitution over the rule variables
// (exist variables excluded), for the tree/provenance hooks.
func (e *engine) subOf(cr *crule, ids []uint32) core.Subst {
	s := make(core.Subst, len(cr.ruleVars))
	for i, v := range cr.ruleVars {
		if ids[i] != unboundID {
			s[v] = e.db.Term(ids[i])
		}
	}
	return s
}

func (e *engine) depthOf(id uint32) int {
	if int(id) < len(e.depthID) {
		return int(e.depthID[id])
	}
	return 0
}

func (e *engine) setDepth(id uint32, d int) {
	for int(id) >= len(e.depthID) {
		e.depthID = append(e.depthID, 0)
	}
	e.depthID[id] = int32(d)
}

// prepareDelta compiles this round's added facts into per-relation delta
// groups for the next round's semi-naive collection.
//
// For every relation but ACDom/1 the group is the tail of the database's
// id-tuple log — new facts of a relation are appended in derivation
// order. ACDom/1 is special: the semi-naive contract (mirroring a
// per-round delta database, which re-derives ACDom(c) for every constant
// of every delta fact) requires the ACDom delta to cover all constants
// occurring in the round's added facts — not only the globally fresh
// ones — in first-occurrence order, plus any explicitly derived ACDom
// facts. An ACDom-reading rule joined against a delta containing a
// known constant must still see that constant.
func (e *engine) prepareDelta() {
	acdomRK := core.RelKey{Name: core.ACDom, Arity: 1}
	counts := make(map[core.RelKey]int)
	var acdomIDs []uint32
	seenConst := make(map[uint32]bool)
	noteID := func(t core.Term) {
		if !t.IsConst() {
			return
		}
		id, ok := e.db.TermID(t)
		if !ok {
			return
		}
		if !seenConst[id] {
			seenConst[id] = true
			acdomIDs = append(acdomIDs, id)
		}
	}
	for _, a := range e.roundAdded {
		if a.Relation == core.ACDom {
			if a.Key() == acdomRK {
				// Explicit/derived ACDom facts join the replay list (the
				// arg may be a null if a rule head derived one).
				id, ok := e.db.TermID(a.Args[0])
				if ok && !seenConst[id] {
					seenConst[id] = true
					acdomIDs = append(acdomIDs, id)
				}
				continue
			}
			counts[a.Key()]++ // odd-arity ACDom: plain tail group
			continue
		}
		counts[a.Key()]++
		for _, t := range a.Args {
			noteID(t)
		}
		for _, t := range a.Annotation {
			noteID(t)
		}
	}
	e.groups = make(map[core.RelKey]*deltaGroup, len(counts)+1)
	for rk, n := range counts {
		w := rk.Arity + rk.AnnArity
		r := e.db.Rel(rk)
		e.groups[rk] = &deltaGroup{w: w, n: n, ids: r.AppendTuples(nil, r.Len()-n, r.Len())}
	}
	if len(acdomIDs) > 0 {
		e.groups[acdomRK] = &deltaGroup{w: 1, n: len(acdomIDs), ids: acdomIDs}
	}
}
