package datalog

import (
	"fmt"
	"sync/atomic"

	"guardedrules/internal/budget"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/hom"
)

// JoinStats counts planner activity; all fields are atomic, one instance
// may be shared by concurrent evaluations (the serving layer aggregates
// them into its /metrics snapshot).
type JoinStats struct {
	// RoundPlans counts join plans computed (per work item per round).
	RoundPlans atomic.Int64
}

// Options configures the semi-naive evaluator. An evaluation runs on
// the calling goroutine; concurrent evaluations share only read-only
// state (compiled templates, cloned snapshots).
type Options struct {
	// Budget, when non-nil, governs the run: cancellation and deadline are
	// observed mid-stratum (between work items and every pollInterval join
	// results; a canceled round's buffers are not merged). MaxRounds
	// bounds the rounds per stratum (0 = 1,000,000); MaxFacts caps
	// derived facts (0 = none) and is enforced per added fact during the
	// merge — the partial database never exceeds the ceiling, mirroring
	// the chase. On exhaustion EvalSemiNaiveOpts returns the partial
	// database — every fact merged so far — with a typed *budget.Error.
	Budget *budget.T
	// Stats, when non-nil, accumulates planner counters.
	Stats *JoinStats
}

// defaultMaxRounds is the per-stratum round ceiling when the budget
// leaves MaxRounds at 0.
const defaultMaxRounds = 1_000_000

// ctempl is the compiled template of one work item, built once at
// Compile time and shared (immutably) across evaluations: either a
// round-0 item (hasPat false; rest is the full positive body) or a
// semi-naive item (pattern is the body atom that must match a delta
// fact, rest the remaining positive body in source order). Variable
// slots are scoped per template.
type ctempl struct {
	rule    *core.Rule
	hasPat  bool
	pattern hom.CAtom
	rest    []hom.CAtom
	neg     []hom.CAtom
	heads   []hom.CAtom
	nvars   int
	// patBound marks the slots bound before the first planned step: the
	// pattern's slots (none for round-0 templates).
	patBound []bool
}

// compileTemplate compiles rule with body position pat as the delta
// pattern (pat < 0 for a round-0 template).
func compileTemplate(r *core.Rule, pat int) ctempl {
	body := r.PositiveBody()
	slots := make(map[core.Term]int)
	t := ctempl{rule: r}
	if pat >= 0 {
		t.hasPat = true
		t.pattern = hom.Compile(body[pat], slots)
	}
	for i, a := range body {
		if i == pat {
			continue
		}
		t.rest = append(t.rest, hom.Compile(a, slots))
	}
	for _, l := range r.Body {
		if l.Negated {
			t.neg = append(t.neg, hom.Compile(l.Atom, slots))
		}
	}
	for _, h := range r.Head {
		t.heads = append(t.heads, hom.Compile(h, slots))
	}
	t.nvars = len(slots)
	t.patBound = make([]bool, t.nvars)
	if pat >= 0 {
		for _, p := range t.pattern.Pos {
			if p.Slot >= 0 {
				t.patBound[p.Slot] = true
			}
		}
	}
	return t
}

// compileAuxTemplate compiles a maintenance template for rule r with an
// explicit pattern atom that is NOT a positive body position: a negated
// literal (block/unblock sweeps match it against added or deleted facts)
// or a head atom (rederivation matches it against a deleted fact and
// asks whether any body instantiation still derives it). rest is the
// FULL positive body; withHeads selects whether head atoms are compiled
// (block/unblock sweeps materialize heads, rederivation needs none).
func compileAuxTemplate(r *core.Rule, pat core.Atom, withHeads bool) ctempl {
	body := r.PositiveBody()
	slots := make(map[core.Term]int)
	t := ctempl{rule: r, hasPat: true}
	t.pattern = hom.Compile(pat, slots)
	for _, a := range body {
		t.rest = append(t.rest, hom.Compile(a, slots))
	}
	for _, l := range r.Body {
		if l.Negated {
			t.neg = append(t.neg, hom.Compile(l.Atom, slots))
		}
	}
	if withHeads {
		for _, h := range r.Head {
			t.heads = append(t.heads, hom.Compile(h, slots))
		}
	}
	t.nvars = len(slots)
	t.patBound = make([]bool, t.nvars)
	for _, p := range t.pattern.Pos {
		if p.Slot >= 0 {
			t.patBound[p.Slot] = true
		}
	}
	return t
}

// citem is the per-evaluation instantiation of a template: the compiled
// atoms are deep-copied because Resolve writes constant ids into them
// (id resolution is per-database), and the plan is recomputed from live
// statistics before each join (see prepare).
type citem struct {
	t       *ctempl
	pattern hom.CAtom
	rest    []hom.CAtom
	neg     []hom.CAtom
	heads   []hom.CAtom
	plan    hom.Plan
	size    int // the database size at the last prepare (-1: never)
}

func cloneAtoms(src []hom.CAtom) []hom.CAtom {
	out := make([]hom.CAtom, len(src))
	for i, a := range src {
		a.Pos = append([]hom.CPos(nil), a.Pos...)
		out[i] = a
	}
	return out
}

func instantiate(ts []ctempl) []citem {
	out := make([]citem, len(ts))
	for i := range ts {
		t := &ts[i]
		c := citem{t: t, rest: cloneAtoms(t.rest), neg: cloneAtoms(t.neg), heads: cloneAtoms(t.heads), size: -1}
		if t.hasPat {
			c.pattern = t.pattern
			c.pattern.Pos = append([]hom.CPos(nil), t.pattern.Pos...)
		}
		out[i] = c
	}
	return out
}

// prepare readies the item for a join over the frozen db. When db
// changed size since the last call, its constants are re-resolved and
// its plan recomputed from db's current statistics: every round of a
// fixpoint merges facts (and new terms arrive only with facts), so each
// round replans, while the frozen database of a DRed sweep is planned
// once. It reports false when the delta pattern holds a constant db
// never interned: the item then matches no tuple.
func (c *citem) prepare(db *database.Database, js *JoinStats) bool {
	if n := db.Len(); n != c.size {
		c.size = n
		c.pattern.Resolve(db)
		for _, as := range [][]hom.CAtom{c.rest, c.neg, c.heads} {
			for i := range as {
				as[i].Resolve(db)
			}
		}
		if c.patternOK() {
			c.plan = hom.PlanBody(c.rest, c.t.patBound, db)
			if js != nil {
				js.RoundPlans.Add(1)
			}
		}
	}
	return c.patternOK()
}

// patternOK reports whether the item's delta pattern resolved fully; a
// pattern with an uninterned constant matches no delta fact.
func (c *citem) patternOK() bool {
	for k := range c.pattern.Pos {
		if p := &c.pattern.Pos[k]; p.Slot < 0 && !p.OK {
			return false
		}
	}
	return true
}

// pollInterval is how many join results a work item processes between
// cancellation polls, bounding the cancellation latency of an item with
// a huge delta.
const pollInterval = 64

// emitter buffers the new head instantiations of one work item. The
// frozen database's seen-set prefilters candidates in id space, and a
// packed-id local keyset drops within-item re-derivations, so candidates
// are materialized to term atoms only when genuinely unseen. Remaining
// cross-item duplicates are resolved by the merge. With present set the
// seen-set prefilter is off: heads the database holds are buffered too
// (DRed's over-deletion candidates, see applyDRed).
type emitter struct {
	c       *citem
	st      *hom.State
	db      *database.Database
	tk      *budget.Tracker
	out     []core.Atom
	local   keyset
	scratch []uint32
	polls   int
	present bool
}

// leaf is the complete-match callback; returning false aborts the
// enumeration (the item's buffer is then discarded by the canceled run).
func (e *emitter) leaf() bool {
	if e.polls++; e.polls%pollInterval == 0 && e.tk.Canceled() {
		return false
	}
	c := e.c
	for i := range c.neg {
		ids, ok := e.st.PackIDs(e.scratch[:0], &c.neg[i])
		if ok && e.db.SeenIDs(c.neg[i].RK, ids) {
			return true
		}
	}
	for i := range c.heads {
		h := &c.heads[i]
		ids, ok := e.st.PackIDs(e.scratch[:0], h)
		if !ok {
			// A head constant not yet interned (or an unbound head
			// variable): certainly not in the database, but with no id key
			// to dedup on; the merge dedups it.
			e.out = append(e.out, e.st.Materialize(h))
			continue
		}
		if (!e.present && e.db.SeenIDs(h.RK, ids)) || !e.local.add(uint32(i), ids) {
			continue
		}
		e.out = append(e.out, e.st.Materialize(h))
	}
	return true
}

// idGroup is a flat list of same-relation id tuples: one relation's
// share of a round's delta, or of the facts a DRed sweep matches.
type idGroup struct {
	n   int
	ids []uint32
}

// groupFacts groups the id tuples of facts by relation. A fact with a
// term db never interned is dropped: no derivation over db touches it.
// With held set, so is a fact db does not hold.
func groupFacts(db *database.Database, facts []core.Atom, held bool) map[core.RelKey]idGroup {
	if len(facts) == 0 {
		return nil
	}
	groups := make(map[core.RelKey]idGroup)
	var scratch []uint32
	for _, f := range facts {
		ids, ok := db.FactIDs(scratch[:0], f)
		scratch = ids
		if !ok || held && !db.SeenIDs(f.Key(), ids) {
			continue
		}
		g := groups[f.Key()]
		groups[f.Key()] = idGroup{n: g.n + 1, ids: append(g.ids, ids...)}
	}
	return groups
}

// wholeBody is the delta of round 0: its items have no pattern, so the
// zero relation key's group of one empty tuple runs each item's whole
// body once. It is never written.
var wholeBody = map[core.RelKey]idGroup{{}: {n: 1}}

// deltaJoin is the one delta join of evaluation and maintenance. For
// each item whose pattern relation has tuples in groups, in item order,
// it prepares the item over the frozen db, matches every tuple against
// the pattern and searches the rest of the body by plan into the item's
// emitter; it returns one buffer per joined item (see wholeBody for
// round 0). With present set the emitter also buffers heads db
// holds (DRed's over-deletion candidates). Every joined item is a
// checkpoint, and a canceled join returns the typed error, no buffers.
func deltaJoin(items []citem, groups map[core.RelKey]idGroup, db *database.Database, opts Options, tk *budget.Tracker, present bool) ([][]core.Atom, error) {
	n := 0 // items the delta reaches: at most one buffer each
	for i := range items {
		if _, found := groups[items[i].pattern.RK]; found {
			n++
		}
	}
	bufs := make([][]core.Atom, 0, n)
	for i := range items {
		c := &items[i]
		g, found := groups[c.pattern.RK]
		if !found || !c.prepare(db, opts.Stats) {
			continue
		}
		if err := tk.Check(); err != nil {
			return nil, err
		}
		em := &emitter{c: c, st: hom.NewState(db, c.t.nvars), db: db, tk: tk,
			scratch: make([]uint32, 0, 16), present: present}
		w := len(c.pattern.Pos)
		for j := 0; j < g.n; j++ {
			mark := em.st.Mark()
			if em.st.Match(&c.pattern, g.ids[j*w:(j+1)*w]) && !em.st.SearchPlan(c.rest, &c.plan, em.leaf) {
				return nil, tk.Check() // canceled mid-item
			}
			em.st.Unwind(mark)
		}
		bufs = append(bufs, em.out)
	}
	return bufs, nil
}

// evalStratum computes the fixpoint of one stratum: round 0 joins every
// rule's whole body over the input, then runDeltaRounds merges and
// propagates. Negated literals are evaluated against the current
// database; callers guarantee stratification (the negated relations are
// fully computed, and Stratify's implicit head→ACDom edges extend the
// guarantee to ACDom).
func evalStratum(cs *compiledStratum, db *database.Database, opts Options, tk *budget.Tracker) error {
	bufs, err := deltaJoin(instantiate(cs.round0), wholeBody, db, opts, tk, false)
	if err != nil {
		return err
	}
	return runDeltaRounds(instantiate(cs.items), db, opts, tk, bufs, nil, nil)
}

// runDeltaRounds is the merge-and-propagate loop of the semi-naive
// engine, shared by evalStratum and incremental maintenance. bufs holds
// candidate head atoms to merge as the first delta (cross-item
// duplicates and facts already present are dropped by the merge); force
// lists facts that are ALREADY in db but must additionally join the
// first round's delta — incremental maintenance forces the facts a
// batch inserted or rederived. onAdd, when non-nil, observes every fact
// the merge inserts (including derived ACDom facts), in merge order.
//
// Each round merges the buffers in item order, then freezes the
// database: every item whose pattern relation gained facts is prepared
// (constants re-resolved, plan recomputed from the post-merge
// statistics) and joins its delta against the frozen round into its own
// buffer. Semi-naive correctness needs the freeze: an item must not see
// facts merged in its own round. The merge uses AddNotify so that ACDom
// facts derived from fresh head constants enter the next delta; without
// this, ACDom-reading rules in the same stratum would miss constants
// introduced mid-fixpoint.
//
// Cancellation protocol: the tracker is checked at every merge point
// and work item, and polled every pollInterval join results inside an
// item. The buffers of a canceled round are discarded, never merged —
// the database then holds exactly the merged facts, a well-formed
// partial fixpoint. A panic unwinds to the engine entry (Program.Eval,
// Maintained.Apply) before the round's merge, with the same guarantee.
func runDeltaRounds(items []citem, db *database.Database, opts Options, tk *budget.Tracker, bufs [][]core.Atom, force []core.Atom, onAdd func(core.Atom)) error {
	maxRounds := budget.Cap(opts.Budget, func(b *budget.T) int { return b.MaxRounds }, defaultMaxRounds)
	maxFacts := 0
	if opts.Budget != nil {
		maxFacts = opts.Budget.MaxFacts
	}
	// The forced facts join the first round's delta ahead of the merged
	// ones; a forced fact db does not hold is dropped.
	forced := groupFacts(db, force, true)
	for round := 0; ; round++ {
		tk.SetRounds(round)
		if err := tk.Check(); err != nil {
			return err
		}
		if round > maxRounds {
			return fmt.Errorf("datalog: stratum exceeded %d rounds: %w",
				maxRounds, tk.Exhausted(budget.ErrRoundLimit))
		}
		// Single-writer merge; newly inserted facts — including derived
		// ACDom facts — form the next delta. The fact ceiling is enforced
		// per added fact, AddCost-style: a fact whose insertion (including
		// the ACDom facts it derives) would push the run past the ceiling
		// is never added, so the partial database never overshoots.
		used := tk.Usage().Facts
		deltaCount := make(map[core.RelKey]int)
		ndelta := 0
		note := func(a core.Atom) {
			deltaCount[a.Key()]++
			ndelta++
			if onAdd != nil {
				onAdd(a)
			}
		}
		for _, buf := range bufs {
			for _, a := range buf {
				if maxFacts > 0 && used+ndelta+db.AddCost(a) > maxFacts {
					tk.AddFacts(ndelta)
					return tk.Exhausted(budget.ErrFactLimit)
				}
				if _, err := db.AddNotify(a, note); err != nil {
					return fmt.Errorf("datalog: merge: %w", err)
				}
			}
		}
		tk.AddFacts(ndelta)
		if ndelta+len(forced) == 0 {
			return nil
		}
		// A relation's delta is the newly merged tail of its id tuples.
		groups := make(map[core.RelKey]idGroup, len(deltaCount)+len(forced))
		for rk, g := range forced {
			groups[rk] = g
		}
		for rk, k := range deltaCount {
			all := db.IDTuples(rk)
			tail := all[len(all)-k*(rk.Arity+rk.AnnArity):]
			if g, found := forced[rk]; found {
				tail = append(g.ids, tail...)
				k += g.n
			}
			groups[rk] = idGroup{n: k, ids: tail}
		}
		forced = nil
		var err error
		if bufs, err = deltaJoin(items, groups, db, opts, tk, false); err != nil {
			return err
		}
	}
}

// EvalSemiNaive computes the stratified fixpoint with the native
// semi-naive evaluator and default options (cost-based planning). It is
// the default engine behind Eval; the chase-based EvalViaChase is the
// reference the differential tests compare it against.
func EvalSemiNaive(th *core.Theory, d *database.Database) (*database.Database, error) {
	return EvalSemiNaiveOpts(th, d, Options{})
}

// EvalSemiNaiveOpts is EvalSemiNaive with explicit options. On budget
// exhaustion (cancellation, deadline, or a ceiling of opts.Budget) it
// returns the partial database — all facts merged before exhaustion —
// together with a typed error satisfying errors.Is against the budget
// sentinels.
func EvalSemiNaiveOpts(th *core.Theory, d *database.Database, opts Options) (*database.Database, error) {
	p, err := Compile(th)
	if err != nil {
		return nil, err
	}
	return p.Eval(d, opts)
}
