package datalog

import (
	"encoding/binary"
	"fmt"
	"runtime/debug"
	"sort"

	"guardedrules/internal/budget"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
)

// factKey returns a canonical injective byte encoding of a ground atom,
// used as the map key of the incremental bookkeeping sets. Atom.String
// is NOT injective (a constant named "a, b" renders like two arguments),
// so the key is built from length-prefixed fields: relation name,
// annotation terms, argument terms, each term tagged with its kind.
func factKey(a core.Atom) string {
	b := make([]byte, 0, 16+2*len(a.Relation))
	b = binary.AppendUvarint(b, uint64(len(a.Relation)))
	b = append(b, a.Relation...)
	b = binary.AppendUvarint(b, uint64(len(a.Annotation)))
	for _, t := range a.Annotation {
		b = appendTermKey(b, t)
	}
	b = binary.AppendUvarint(b, uint64(len(a.Args)))
	for _, t := range a.Args {
		b = appendTermKey(b, t)
	}
	return string(b)
}

func appendTermKey(b []byte, t core.Term) []byte {
	b = append(b, byte(t.Kind))
	b = binary.AppendUvarint(b, uint64(len(t.Name)))
	return append(b, t.Name...)
}

// Delta is the net answer-set change of one Apply: the facts present
// after the batch but not before, and vice versa. Both slices are sorted
// by canonical fact key, so equal deltas are structurally identical.
type Delta struct {
	Added   []core.Atom
	Removed []core.Atom
}

// Maintained is an incrementally maintained fixpoint: a compiled program
// together with its current materialization and a snapshot of the base
// database it is evaluated over. Apply folds a batch of base-fact
// insertions and retractions into the materialization without
// recomputing it from scratch — insertion resumes the semi-naive
// fixpoint with the new facts as the initial delta, deletion runs DRed
// (delete-and-rederive) over the stratified program — and the maintained
// database is always byte-identical (Database.String) to p.Eval of the
// current base snapshot.
//
// A Maintained value is not safe for concurrent use; callers serialize
// Apply (the serving layer holds one writer per mutable DB). The
// databases returned by Current and Apply are immutable snapshots:
// Apply never mutates a previously returned database.
type Maintained struct {
	p    *Program
	cur  *database.Database
	base *database.Database
}

// NewMaintained evaluates the program over base and returns a maintained
// handle positioned at that fixpoint. The handle keeps a snapshot of
// base (later writes to base do not reach it), explicitly added ACDom
// facts included.
func NewMaintained(p *Program, base *database.Database, opts Options) (*Maintained, error) {
	m, _, err := EvalMaintained(p, base, opts)
	return m, err
}

// EvalMaintained is NewMaintained for a caller that also serves the
// answers of the evaluation it runs. On success it returns the handle
// and its fixpoint. On error it returns no handle, and the fixpoint is
// what Eval returns: the sound partial fixpoint of a budget-truncated
// run, or nil.
func EvalMaintained(p *Program, base *database.Database, opts Options) (*Maintained, *database.Database, error) {
	fix, err := p.Eval(base, opts)
	if err != nil {
		return nil, fix, err
	}
	return &Maintained{p: p, cur: fix, base: base.Clone()}, fix, nil
}

// explicit reports whether f is an explicit fact of the base database
// b: present, and for an ACDom fact also pinned. An unpinned ACDom fact
// is derived from b's other facts, not added by the caller.
func explicit(b *database.Database, f core.Atom) bool {
	if t, ok := domFact(f); ok {
		return b.ACDomPinned(t)
	}
	return b.Has(f)
}

// domFact returns t when f is the maintained ACDom fact ACDom(t) of a
// constant t.
func domFact(f core.Atom) (core.Term, bool) {
	if f.Relation != core.ACDom || len(f.Args) != 1 || len(f.Annotation) != 0 || !f.Args[0].IsConst() {
		return core.Term{}, false
	}
	return f.Args[0], true
}

// Program returns the compiled program of the handle.
func (m *Maintained) Program() *Program { return m.p }

// Current returns the current materialized fixpoint. The returned
// database must be treated as read-only; it remains valid (and
// unchanged) after subsequent Apply calls.
func (m *Maintained) Current() *database.Database { return m.cur }

// Apply folds a batch of base-fact mutations into the maintained
// fixpoint. The batch is staged on a snapshot of the base exactly as
// Database.Retract and Database.Add would take it — retractions first,
// then additions, so a retract and an add of the same fact in one batch
// cancel — and the fixpoint follows the base's net change. On success it
// returns the new materialization and the net delta of the derived fact
// set. On any error — budget exhaustion (checkpoints run through the
// same tracker as every other engine), a contained panic, a non-ground
// fact — the handle is unchanged: the current materialization is still
// the pre-batch version.
func (m *Maintained) Apply(add, retract []core.Atom, opts Options) (res *database.Database, delta Delta, err error) {
	next := m.base.Clone()
	for _, f := range retract {
		if !f.IsGround() {
			return nil, Delta{}, fmt.Errorf("datalog: apply: retract %s: %w", f, database.ErrNotGround)
		}
		next.Retract(f)
	}
	for _, f := range add {
		if !f.IsGround() {
			return nil, Delta{}, fmt.Errorf("datalog: apply: add %s: %w", f, database.ErrNotGround)
		}
		next.Add(f)
	}
	// The fact maps point into the batch and the gross logs: an atom
	// value would make every map slot several times larger.
	baseDel := make(map[string]*core.Atom)
	for i, f := range retract {
		if explicit(m.base, f) && !explicit(next, f) {
			baseDel[factKey(f)] = &retract[i]
		}
	}
	baseAdd := make(map[string]*core.Atom)
	for i, f := range add {
		if explicit(next, f) && !explicit(m.base, f) {
			baseAdd[factKey(f)] = &add[i]
		}
	}
	if len(baseAdd)+len(baseDel) == 0 {
		return m.cur, Delta{}, nil
	}

	// Net and gross change tracking. The net sets cancel (a fact deleted
	// then rederived never surfaces in the delta); the gross logs drive
	// the DRed frontiers and the forced deltas, in event order.
	addedSet := make(map[string]*core.Atom)
	removedSet := make(map[string]*core.Atom)
	var grossAdds, grossDels []core.Atom
	noteAdd := func(a core.Atom) {
		k := factKey(a)
		grossAdds = append(grossAdds, a)
		if _, ok := removedSet[k]; ok {
			delete(removedSet, k)
		} else {
			addedSet[k] = &grossAdds[len(grossAdds)-1]
		}
	}
	noteDel := func(a core.Atom) {
		k := factKey(a)
		grossDels = append(grossDels, a)
		if _, ok := addedSet[k]; ok {
			delete(addedSet, k)
		} else {
			removedSet[k] = &grossDels[len(grossDels)-1]
		}
	}

	tk := budget.Start(opts.Budget)
	defer tk.Stop()
	// Same panic seam as Program.Eval: a fault anywhere in maintenance
	// surfaces as one failed batch, with the handle untouched.
	defer func() {
		if v := recover(); v != nil {
			res, delta, err = nil, Delta{}, fmt.Errorf("datalog: apply: %w",
				&budget.PanicError{Value: v, Stack: debug.Stack()})
		}
	}()

	work := m.cur.Clone()
	if err := m.applyDRed(work, next, sortedFacts(baseAdd), sortedFacts(baseDel), opts, tk, noteAdd, noteDel, &grossAdds, &grossDels, removedSet); err != nil {
		return nil, Delta{}, err
	}

	// Commit: the staged base and the new materialization become visible
	// atomically from the caller's perspective.
	m.base, m.cur = next, work
	return work, Delta{Added: sortedFacts(addedSet), Removed: sortedFacts(removedSet)}, nil
}

// applyDRed folds the batch into work, a clone of m.cur, given next,
// the staged post-batch base, by delete-and-rederive, stratum by
// stratum: over-delete every derivation that may have used a deleted
// fact or become blocked by an added one (phase D, joined against the
// pristine pre-batch database — a safe over-approximation), re-add
// over-deleted facts still in next or still one-step derivable (phase
// R), then resume the semi-naive insertion rounds with the rederived
// and added facts as the delta (phase I, including firings newly
// unblocked by deletions). A batch that deletes nothing, over a program
// without negation, leaves phases D and R nothing to do: they then
// instantiate and plan nothing, and phase I alone resumes the monotone
// fixpoint of the grown base.
//
// Every deletion runs through retractCascade: for ACDom-reading
// programs, a constant whose last trusted support dies drags its
// remaining (possibly self-supporting) derived supports into the
// frontier too — see the method comment for why refcounts alone
// under-delete there.
func (m *Maintained) applyDRed(work, next *database.Database, adds, dels []core.Atom, opts Options, tk *budget.Tracker, noteAdd, noteDel func(core.Atom), grossAdds, grossDels *[]core.Atom, removedSet map[string]*core.Atom) error {
	old := m.cur
	maxFacts := 0
	if opts.Budget != nil {
		maxFacts = opts.Budget.MaxFacts
	}

	// Base retractions come first; cascaded ACDom deaths ride the same
	// notification into the deletion frontier.
	for _, f := range dels {
		if err := m.retractCascade(work, next, f, 0, tk, noteDel); err != nil {
			return fmt.Errorf("datalog: apply: retract %s: %w", f, err)
		}
	}

	for i := range m.p.strata {
		cs := &m.p.strata[i]
		// One instantiation of each template serves every phase of the
		// stratum, over old and over work alike: citem.prepare re-resolves
		// an item whenever the database under it changed.
		items, negItems := instantiate(cs.items), instantiate(cs.negItems)

		// Phase D: over-deletion. Joins run against the frozen pre-batch
		// database — every derivation that existed before the batch and
		// touched a deleted fact (or was blocked-to-be by an added one)
		// is a deletion candidate; rederivation repairs the overshoot.
		deleteHeads := func(cands []*derived) error {
			for _, b := range cands {
				for k := 0; k < len(b.ids); {
					rk, ids, h, nk := b.at(k)
					if k = nk; ids != nil {
						a := old.Atom(rk, ids)
						h = &a
					}
					if !work.Has(*h) {
						continue
					}
					if err := m.retractCascade(work, next, *h, i, tk, noteDel); err != nil {
						return fmt.Errorf("datalog: apply: over-delete %s: %w", *h, err)
					}
				}
			}
			return nil
		}
		if len(cs.negItems) > 0 && len(*grossAdds) > 0 {
			// Block sweep: an added fact matching a negated literal kills
			// the firings it now blocks. The template's own negated
			// literals are checked against the pre-batch database, so a
			// fact that was already present (e.g. over-deleted elsewhere
			// and rederived) blocks nothing spuriously.
			cands, err := deltaJoin(negItems, groupFacts(old, *grossAdds, false), old, opts, tk, true)
			if err != nil {
				return err
			}
			if err := deleteHeads(cands); err != nil {
				return err
			}
		}
		for cursor := 0; cursor < len(*grossDels); {
			// Round checkpoint: FailAt injection and cancellation observe
			// over-deletion rounds exactly like semi-naive merge rounds.
			if err := tk.Check(); err != nil {
				return err
			}
			dels := (*grossDels)[cursor:]
			cursor = len(*grossDels)
			cands, err := deltaJoin(items, groupFacts(old, dels, false), old, opts, tk, true)
			if err != nil {
				return err
			}
			if err := deleteHeads(cands); err != nil {
				return err
			}
		}

		// Phase R: rederivation. An over-deleted fact of this stratum's
		// head relations returns if it is in the effective new base, or
		// if some surviving body instantiation still derives it (the
		// diamond case: a retracted base fact that is independently
		// derivable must not lose its derived copy).
		var rItems []citem
		readds := 0
		for _, k := range sortedKeys(removedSet) {
			fp, live := removedSet[k]
			if !live || fp.Relation == core.ACDom || !cs.headRels[fp.Key()] {
				continue
			}
			f := *fp
			if !next.Has(f) {
				if rItems == nil {
					rItems = instantiate(cs.redItems)
				}
				if !oneStepDerivable(&f, rItems, work, opts, tk) {
					continue
				}
			}
			if maxFacts > 0 && tk.Usage().Facts+readds+work.AddCost(f) > maxFacts {
				tk.AddFacts(readds)
				return tk.Exhausted(budget.ErrFactLimit)
			}
			if _, err := work.AddNotify(f, func(a core.Atom) { noteAdd(a); readds++ }); err != nil {
				return fmt.Errorf("datalog: apply: rederive %s: %w", f, err)
			}
		}
		tk.AddFacts(readds)
		if err := tk.Check(); err != nil {
			return err
		}

		// Phase I: insertion. Deletions may have unblocked firings of
		// this stratum's negated rules — their heads join the candidate
		// buffers (the emitter re-checks every negated literal against
		// the current database, so nothing still blocked fires). The
		// batch additions are offered at EVERY stratum, not just the
		// first: a batch-added fact of a higher-stratum head relation can
		// be over-deleted by that stratum's phase D after it merged at
		// stratum 0, and phase R only watches the net-removed set (the
		// deletion canceled against the earlier add). The merge dedups,
		// so re-offering already-present facts costs one lookup each.
		// Everything inserted so far — the batch, lower-strata
		// derivations and rederived facts — is forced into the first
		// delta: any new firing of a stratum-i rule must use one of them.
		bufs := []*derived{batch(adds)}
		if len(cs.negItems) > 0 && len(*grossDels) > 0 {
			ubufs, err := deltaJoin(negItems, groupFacts(work, *grossDels, false), work, opts, tk, false)
			if err != nil {
				return err
			}
			bufs = append(bufs, ubufs...)
		}
		if err := runDeltaRounds(items, work, opts, tk, bufs, *grossAdds, noteAdd); err != nil {
			return fmt.Errorf("datalog: apply: stratum %d: %w", i, err)
		}
	}
	return nil
}

// retractCascade removes f from work (with ACDom refcount maintenance
// via DeleteNotify) and closes the refcount blind spot of ACDom-reading
// programs: ACDom is maintained by occurrence counting, and counting is
// unsound under deletion once rules derive facts FROM domain membership
// — with `ACDom(X) -> R(X)`, the derived R(c) supports its own ACDom(c)
// guard, so retracting the last real support leaves the pair alive on
// mutual support and DRed's phase D never sees the ACDom deletion.
//
// The repair is a trusted-support test per constant of every deleted
// fact: a constant is trusted while the post-batch base next still
// contains it or pins its ACDom fact, or it occurs in a fact of a
// relation whose last deriving stratum precedes the current one (those
// facts are final — phase D can no longer touch them — and base facts
// exist from stratum 0, so the timing matches a from-scratch stratified
// run). When a deletion drops an occurrence of an untrusted constant, or
// a retracted base ACDom fact survives on derived supports of an
// untrusted constant, every remaining fact containing it is suspect of
// circular support and joins the deletion worklist; the last support's
// DeleteNotify then retracts ACDom(c) with notification (the retraction
// unpinned it), feeding DRed's frontier. All of this is a safe
// over-approximation in the DRed sense: the suspect facts sit at
// strata >= the current one (a surviving earlier-stratum fact would
// have made the constant trusted), so their rederivation phases are
// still ahead and restore whatever a surviving derivation justifies.
//
// Programs that never read ACDom skip the test entirely: their ACDom
// facts have no consequences, and refcounts alone maintain them
// exactly.
func (m *Maintained) retractCascade(work, next *database.Database, f core.Atom, stratum int, tk *budget.Tracker, noteDel func(core.Atom)) error {
	if !m.p.readsACDom {
		_, err := work.DeleteNotify(f, noteDel)
		return err
	}
	trusted := func(t core.Term) bool {
		if next.ACDomSupport(t) > 0 || next.ACDomPinned(t) {
			return true
		}
		for rk, last := range m.p.lastStratum {
			if last < stratum && work.TermOccursIn(rk, t) {
				return true
			}
		}
		return false
	}
	// cascaded marks constants whose remaining supports were already
	// enqueued in this call: every fact on the worklist is deleted before
	// returning, so re-testing them while the queue drains is redundant.
	var cascaded map[core.Term]bool
	queue := []core.Atom{f}
	// suspect tests t, whose ACDom fact may have lost its last trusted
	// support (nulls have none to lose).
	suspect := func(t core.Term) {
		if cascaded[t] || work.ACDomSupport(t) == 0 || trusted(t) {
			return // refcount already cascaded, or membership still grounded
		}
		if cascaded == nil {
			cascaded = make(map[core.Term]bool)
		}
		cascaded[t] = true
		queue = append(queue, work.FactsContaining(t)...)
	}
	for n := 0; len(queue) > 0; n++ {
		if n%64 == 63 {
			// Checkpoint: a huge cascade observes cancellation and FailAt
			// injection like every other engine loop.
			if err := tk.Check(); err != nil {
				return err
			}
		}
		a := queue[0]
		queue = queue[1:]
		removed, err := work.DeleteNotify(a, noteDel)
		if err != nil {
			return err
		}
		if a.Relation == core.ACDom {
			if t, ok := domFact(a); ok && !removed {
				suspect(t) // a retracted ACDom fact its derived supports keep alive
			}
			continue
		}
		if removed {
			for _, t := range a.Args {
				suspect(t)
			}
			for _, t := range a.Annotation {
				suspect(t)
			}
		}
	}
	return nil
}

// oneStepDerivable reports whether some body instantiation in db still
// derives f, by matching f against the head-pattern templates of its
// stratum and searching the positive body, with every negated literal
// checked against db. Each item is prepared for the search: db gains
// the rederived facts between calls.
func oneStepDerivable(f *core.Atom, items []citem, db *database.Database, opts Options, tk *budget.Tracker) bool {
	rk := f.Key()
	for i := range items {
		c := &items[i]
		if c.pattern.RK != rk || !c.prepare(db, opts.Stats) {
			continue
		}
		ids, ok := db.FactIDs(c.scratch[:0], *f)
		if !ok {
			return false
		}
		c.scratch = ids
		st, found, polls := c.st, false, 0
		var nids []uint32
		mark := st.Mark()
		if st.Match(&c.pattern, ids) {
			st.SearchPlan(c.rest, &c.plan, func() bool {
				if polls++; polls%pollInterval == 0 && tk.Canceled() {
					return false
				}
				for k := range c.neg {
					var ok bool
					nids, ok = st.PackIDs(nids[:0], &c.neg[k])
					if ok && c.neg[k].Rel.Has(nids) {
						return true // this instantiation is blocked; keep searching
					}
				}
				found = true
				return false
			})
		}
		st.Unwind(mark)
		if found {
			return true
		}
	}
	return false
}

// sortedFacts returns the facts of m in key order (nil when m is empty).
func sortedFacts(m map[string]*core.Atom) []core.Atom {
	if len(m) == 0 {
		return nil
	}
	keys := sortedKeys(m)
	out := make([]core.Atom, 0, len(keys))
	for _, k := range keys {
		out = append(out, *m[k])
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
