package datalog

import (
	"fmt"
	"slices"
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
	// RoundPlans counts join plans computed: a work item is planned when
	// it first joins and again when its relations grew or shrank 2×.
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
// Compile time and shared (immutably) across evaluations: a round-0 item
// (no pattern; rest is the full positive body), a semi-naive item
// (pattern is the body atom that must match a delta fact, rest the
// remaining positive body in source order) or a maintenance item (see
// compileTemplate). Variable slots are scoped per template.
type ctempl struct {
	pattern hom.CAtom
	rest    []hom.CAtom
	neg     []hom.CAtom
	heads   []hom.CAtom
	nvars   int
	// patBound marks the slots bound before the first planned step: the
	// pattern's slots (none for round-0 templates).
	patBound []bool
}

// compileTemplate compiles a template of rule r whose pattern is pat
// (nil for round 0) and whose rest is the positive body without position
// skip (-1: the full body). A semi-naive item's pattern is the body atom
// at skip. A maintenance item's pattern is no positive body position: a
// negated literal (block/unblock sweeps match it against added or
// deleted facts) or a head atom (rederivation matches it against a
// deleted fact and asks whether a body instantiation still derives it;
// it needs no heads, withHeads false).
func compileTemplate(r *core.Rule, pat *core.Atom, skip int, withHeads bool) ctempl {
	slots := make(map[core.Term]int)
	var t ctempl
	if pat != nil {
		t.pattern = hom.Compile(*pat, slots)
	}
	for i, a := range r.PositiveBody() {
		if i != skip {
			t.rest = append(t.rest, hom.Compile(a, slots))
		}
	}
	for _, l := range r.Body {
		if l.Negated {
			t.neg = append(t.neg, hom.Compile(l.Atom, slots))
		}
	}
	for _, h := range r.Head {
		if withHeads {
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

// citem is the per-evaluation instantiation of a template, kept across
// the joins of the evaluation. Its compiled atoms are copies, because
// Resolve writes database-specific handles and constant ids into them;
// its search state and head buffer serve every join; and its plan is
// kept until the data it was made for has changed enough (see prepare).
type citem struct {
	t       *ctempl
	pattern hom.CAtom
	rest    []hom.CAtom
	neg     []hom.CAtom
	plan    hom.Plan
	// sizes holds the size of each rest atom's relation when the plan was
	// made; nil before the first plan.
	sizes []int
	// st.DB is the database the atoms were last resolved against, and
	// epoch its Epoch then.
	st    *hom.State
	epoch int
	// out buffers the join's head instantiations; out.heads are the
	// item's compiled heads.
	out     derived
	leafFn  func() bool
	scratch []uint32
	tk      *budget.Tracker
	polls   int
	present bool
}

func cloneAtoms(src []hom.CAtom) []hom.CAtom {
	out := slices.Clone(src)
	for i := range out {
		out[i].Pos = slices.Clone(out[i].Pos)
	}
	return out
}

func instantiate(ts []ctempl) []citem {
	out := make([]citem, len(ts))
	for i := range ts {
		t, c := &ts[i], &out[i]
		*c = citem{t: t, pattern: t.pattern, rest: cloneAtoms(t.rest), neg: cloneAtoms(t.neg),
			out: derived{heads: cloneAtoms(t.heads)}}
		c.pattern.Pos = slices.Clone(t.pattern.Pos)
	}
	return out
}

// prepare readies the item for a join over the frozen db and reports
// whether its delta pattern resolved: a pattern with a constant db never
// interned matches no tuple. The atoms are re-resolved when db is not
// the database they were resolved against or its Epoch moved since; a
// fact count says nothing here, since a batch that deletes and re-adds
// can end at the same count while a copy-on-write write replaced a
// relation the handles point to. The plan is remade only when a relation
// the item reads has grown or shrunk 2× since it was made, so a fixpoint
// plans an item a logarithmic number of times, not once per round. Any
// plan enumerates every match; a kept plan changes only the speed and
// the order of derivations.
func (c *citem) prepare(db *database.Database, js *JoinStats) bool {
	if c.st == nil {
		c.st, c.leafFn = hom.NewState(nil, c.t.nvars), c.leaf
	}
	if db != c.st.DB || db.Epoch() != c.epoch {
		c.st.DB, c.epoch = db, db.Epoch()
		c.pattern.Resolve(db)
		for _, as := range [][]hom.CAtom{c.rest, c.neg, c.out.heads} {
			for i := range as {
				as[i].Resolve(db)
			}
		}
	}
	for k := range c.pattern.Pos {
		if p := &c.pattern.Pos[k]; p.Slot < 0 && !p.OK {
			return false
		}
	}
	replan := c.sizes == nil
	for i := 0; !replan && i < len(c.rest); i++ {
		n, p := c.rest[i].Rel.Len(), c.sizes[i]
		replan = n > 2*p || 2*n < p
	}
	if replan {
		c.plan = hom.PlanBody(c.rest, c.t.patBound)
		if c.sizes == nil {
			c.sizes = make([]int, len(c.rest))
		}
		for i := range c.rest {
			c.sizes[i] = c.rest[i].Rel.Len()
		}
		if js != nil {
			js.RoundPlans.Add(1)
		}
	}
	return true
}

// pollInterval is how many join results a work item processes between
// cancellation polls, bounding the cancellation latency of an item with
// a huge delta.
const pollInterval = 64

// leaf is the complete-match callback of a join: it buffers the item's
// unblocked head instantiations the frozen database does not hold, one
// hash per instantiation serving both the database's seen-set and the
// buffer's. With present set the seen-set prefilter is off: heads the
// database holds are buffered too (DRed's over-deletion candidates, see
// applyDRed). Returning false aborts the enumeration (a canceled run
// then discards the buffer).
func (c *citem) leaf() bool {
	if c.polls++; c.polls%pollInterval == 0 && c.tk.Canceled() {
		return false
	}
	for i := range c.neg {
		ids, ok := c.st.PackIDs(c.scratch[:0], &c.neg[i])
		if ok && c.neg[i].Rel.Has(ids) {
			return true
		}
	}
	for i := range c.out.heads {
		h := &c.out.heads[i]
		ids, ok := c.st.PackIDs(c.scratch[:0], h)
		if !ok {
			// A head constant not yet interned: certainly not in the
			// database, but with no id key to dedup on.
			c.out.addAtom(c.st.Materialize(h))
			continue
		}
		c.scratch = ids
		if hash := database.HashIDs(ids); c.present || !h.Rel.HasHash(hash, ids) {
			c.out.add(hash, uint32(i), ids)
		}
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
// head buffer; it returns the buffer of every joined item (see wholeBody
// for round 0), valid until that item joins again. With present set the
// buffers also hold heads db holds (DRed's over-deletion candidates).
// Every joined item is a checkpoint, and a canceled join returns the
// typed error, no buffers.
func deltaJoin(items []citem, groups map[core.RelKey]idGroup, db *database.Database, opts Options, tk *budget.Tracker, present bool) ([]*derived, error) {
	var bufs []*derived
	for i := range items {
		c := &items[i]
		g, found := groups[c.pattern.RK]
		if !found || !c.prepare(db, opts.Stats) {
			continue
		}
		if err := tk.Check(); err != nil {
			return nil, err
		}
		c.out.reset()
		c.tk, c.present = tk, present
		w := len(c.pattern.Pos)
		for j := 0; j < g.n; j++ {
			mark := c.st.Mark()
			ok := !c.st.Match(&c.pattern, g.ids[j*w:(j+1)*w]) || c.st.SearchPlan(c.rest, &c.plan, c.leafFn)
			c.st.Unwind(mark)
			if !ok {
				return nil, tk.Check() // canceled mid-item
			}
		}
		bufs = append(bufs, &c.out)
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
// candidate heads to merge as the first delta (cross-item duplicates and
// facts already present are dropped by the merge); force lists facts
// that are ALREADY in db but must additionally join the first round's
// delta — incremental maintenance forces the facts a batch inserted or
// rederived. onAdd, when non-nil, observes every fact the merge inserts
// (including derived ACDom facts), in merge order.
//
// Each round merges the buffers in item order, then freezes the
// database: every item whose pattern relation gained facts is prepared
// (see citem.prepare) and joins its delta against the frozen round into
// its own buffer. Semi-naive correctness needs the freeze: an item must
// not see facts merged in its own round. The merge inserts id tuples
// (Database.AddIDs), which also inserts the ACDom facts of fresh head
// constants; those enter the next delta too, or ACDom-reading rules in
// the same stratum would miss constants introduced mid-fixpoint.
//
// Cancellation protocol: the tracker is checked at every merge point
// and work item, and polled every pollInterval join results inside an
// item. The buffers of a canceled round are discarded, never merged —
// the database then holds exactly the merged facts, a well-formed
// partial fixpoint. A panic unwinds to the engine entry (Program.Eval,
// Maintained.Apply) before the round's merge, with the same guarantee.
func runDeltaRounds(items []citem, db *database.Database, opts Options, tk *budget.Tracker, bufs []*derived, force []core.Atom, onAdd func(core.Atom)) error {
	maxRounds := budget.Cap(opts.Budget, func(b *budget.T) int { return b.MaxRounds }, defaultMaxRounds)
	maxFacts := 0
	if opts.Budget != nil {
		maxFacts = opts.Budget.MaxFacts
	}
	// The forced facts join the first round's delta ahead of the merged
	// ones; a forced fact db does not hold is dropped.
	forced := groupFacts(db, force, true)
	var scratch, tails []uint32
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
		// is never added, so the partial database never overshoots. A
		// materialized head is interned first, so a refused one may leave
		// its fresh constant interned, in no fact.
		used := tk.Usage().Facts
		deltaCount := make(map[core.RelKey]int)
		ndelta := 0
		note := func(rk core.RelKey, ids []uint32) {
			deltaCount[rk]++
			ndelta++
			if onAdd != nil {
				onAdd(db.Atom(rk, ids))
			}
		}
		for _, b := range bufs {
			for i := 0; i < len(b.ids); {
				rk, ids, a, next := b.at(i)
				i = next
				if ids == nil {
					var err error
					if ids, err = db.InternAtom(scratch[:0], *a); err != nil {
						return fmt.Errorf("datalog: merge: %w", err)
					}
					scratch = ids
				}
				if maxFacts > 0 && used+ndelta+db.AddCostIDs(rk, ids) > maxFacts {
					tk.AddFacts(ndelta)
					return tk.Exhausted(budget.ErrFactLimit)
				}
				db.AddIDs(rk, ids, note)
			}
		}
		tk.AddFacts(ndelta)
		if ndelta+len(forced) == 0 {
			return nil
		}
		// A relation's delta is the newly merged tail of its id tuples,
		// copied into tails, which the previous round's groups no longer
		// need.
		groups := make(map[core.RelKey]idGroup, len(deltaCount)+len(forced))
		for rk, g := range forced {
			groups[rk] = g
		}
		tails = tails[:0]
		for rk, k := range deltaCount {
			r, start := db.Rel(rk), len(tails)
			tails = r.AppendTuples(tails, r.Len()-k, r.Len())
			tail := tails[start:len(tails):len(tails)]
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
