package hom

import (
	"guardedrules/internal/core"
	"guardedrules/internal/database"
)

// This file is the id-space variant of the homomorphism search: the same
// most-constrained-first backtracking as ForEach/search, but operating on
// the database's packed uint32 id tuples with variable-slot arrays
// instead of substitution maps. Atoms are compiled once per rule
// (Compile), ground terms are re-resolved against the database whenever
// it may have grown (CAtom.Resolve), and the inner loop compares and
// binds dense ids only — no map operations and no term hashing.
//
// The candidate enumeration order is identical to ForEach's: the same
// atom-selection rule (fewest candidates under the current bindings,
// first atom wins ties), the same index choice (bestIndex's comparison
// is replicated bit for bit), and the same fact order (per-position
// index lists and full relation scans both follow insertion order).
// Engines that derive determinism from ForEach's enumeration order — the
// chase's trigger order in particular — can therefore switch between the
// two searchers without changing their results.

// CPos is one compiled flat position of an atom: a variable slot
// (Slot >= 0) or a ground term (Slot < 0, Term kept for
// materialization). For ground positions, ID/OK hold the term's interned
// id as of the last Resolve; OK is false when the database has never
// interned the term, in which case the position matches no fact.
type CPos struct {
	Slot int
	Term core.Term
	ID   uint32
	OK   bool
}

// CAtom is an atom compiled against a variable-slot space: its relation
// key plus one CPos per flat position (arguments first, then
// annotation). Rel is the relation's handle as of the last Resolve: the
// planned search (PlanBody, SearchPlan) reads through it, the dynamic
// Search by RK.
type CAtom struct {
	Atom core.Atom
	RK   core.RelKey
	Pos  []CPos
	Rel  *database.Rel
}

// Compile compiles a into the slot space, assigning fresh slots (in
// order of first occurrence) to variables not yet in slots. Ground
// positions still need a Resolve against the target database before the
// atom can be matched.
func Compile(a core.Atom, slots map[core.Term]int) CAtom {
	ca := CAtom{Atom: a, RK: a.Key()}
	add := func(t core.Term) {
		p := CPos{Slot: -1, Term: t}
		if t.IsVar() {
			s, ok := slots[t]
			if !ok {
				s = len(slots)
				slots[t] = s
			}
			p.Slot = s
		}
		ca.Pos = append(ca.Pos, p)
	}
	for _, t := range a.Args {
		add(t)
	}
	for _, t := range a.Annotation {
		add(t)
	}
	return ca
}

// Width returns the number of flat positions (ids per fact tuple).
func (ca *CAtom) Width() int { return len(ca.Pos) }

// Resolve re-resolves the ground terms and the relation handle of ca
// against db. Call it whenever db.Epoch moved since the last Resolve.
func (ca *CAtom) Resolve(db *database.Database) {
	ca.Rel = db.Rel(ca.RK)
	for k := range ca.Pos {
		p := &ca.Pos[k]
		if p.Slot >= 0 {
			continue
		}
		p.ID, p.OK = db.TermID(p.Term)
	}
}

// State is the mutable state of an id-space search: per-slot bindings, a
// bound mask, and the undo trail. A State is owned by one goroutine; the
// database is only read.
type State struct {
	DB    *database.Database
	B     []uint32
	Bd    []bool
	trail []int32
	done  []bool
}

// NewState returns a search state with nvars unbound slots over db.
func NewState(db *database.Database, nvars int) *State {
	return &State{DB: db, B: make([]uint32, nvars), Bd: make([]bool, nvars)}
}

// Grow ensures the state has at least nvars slots (existing bindings are
// kept). Engines sharing one state across rules size it to the largest
// rule.
func (st *State) Grow(nvars int) {
	for len(st.B) < nvars {
		st.B = append(st.B, 0)
		st.Bd = append(st.Bd, false)
	}
}

// Bind binds slot to id without recording it on the trail; callers that
// seed bindings (e.g. a trigger's variable tuple) undo them with Unbind.
func (st *State) Bind(slot int, id uint32) {
	st.B[slot] = id
	st.Bd[slot] = true
}

// Unbind clears a seeded binding.
func (st *State) Unbind(slot int) { st.Bd[slot] = false }

// Mark returns the current trail position for a later Unwind.
func (st *State) Mark() int { return len(st.trail) }

// Unwind undoes all trail bindings made since the mark.
func (st *State) Unwind(mark int) {
	for _, s := range st.trail[mark:] {
		st.Bd[s] = false
	}
	st.trail = st.trail[:mark]
}

// Match unifies ca against a fact's id tuple, recording fresh bindings
// on the trail. On failure, bindings made so far stay on the trail; the
// caller unwinds to its mark either way.
func (st *State) Match(ca *CAtom, ids []uint32) bool {
	for k := range ca.Pos {
		p := &ca.Pos[k]
		id := ids[k]
		if p.Slot < 0 {
			if !p.OK || p.ID != id {
				return false
			}
			continue
		}
		if st.Bd[p.Slot] {
			if st.B[p.Slot] != id {
				return false
			}
			continue
		}
		st.Bd[p.Slot] = true
		st.B[p.Slot] = id
		st.trail = append(st.trail, int32(p.Slot))
	}
	return true
}

// bestIndex picks the tightest index for ca under the current bindings:
// the resolved position with the fewest facts, or a full relation scan
// when no position is resolved. The comparison replicates the term-space
// bestIndex exactly (including its tie-breaking), so both searchers pick
// the same candidate lists.
func (st *State) bestIndex(ca *CAtom) (int, uint32, int) {
	bestPos := -1
	var bestID uint32
	bestCount := st.DB.RelSize(ca.RK)
	for k := range ca.Pos {
		p := &ca.Pos[k]
		var id uint32
		c := 0
		if p.Slot >= 0 {
			if !st.Bd[p.Slot] {
				continue
			}
			id = st.B[p.Slot]
			c = st.DB.CountWithID(ca.RK, k, id)
		} else if p.OK {
			// An unresolved ground term (p.OK false) occurs in no fact:
			// zero candidates, dead branch.
			id = p.ID
			c = st.DB.CountWithID(ca.RK, k, id)
		}
		if c < bestCount || bestPos == -1 && c <= bestCount {
			bestCount = c
			bestPos = k
			bestID = id
		}
	}
	return bestPos, bestID, bestCount
}

// Search backtracks over the atoms whose done flag is false, always
// expanding the most constrained one, calling fn at every complete
// match. fn returning false stops the enumeration; Search reports
// whether enumeration ran to completion. done is owned by the caller
// (entries are restored on return), which lets delta-driven engines
// pre-mark an atom they matched by hand. Bindings made during the search
// are unwound before Search returns.
func (st *State) Search(atoms []CAtom, done []bool, fn func() bool) bool {
	best := -1
	bestCount := -1
	bestPos := -1
	var bestID uint32
	for i := range atoms {
		if done[i] {
			continue
		}
		pos, id, count := st.bestIndex(&atoms[i])
		if best == -1 || count < bestCount {
			best, bestCount, bestPos, bestID = i, count, pos, id
			if count == 0 {
				return true // dead branch
			}
		}
	}
	if best == -1 {
		return fn()
	}
	done[best] = true
	ca := &atoms[best]
	r := st.DB.Rel(ca.RK)
	var list []int32
	n := r.Len()
	if bestPos >= 0 {
		list = r.Posting(bestPos, bestID)
		n = len(list)
	}
	cont := st.expand(ca, r, list, n, func() bool { return st.Search(atoms, done, fn) })
	done[best] = false
	return cont
}

// ForEach is Search with no atoms pre-matched.
func (st *State) ForEach(atoms []CAtom, fn func() bool) bool {
	if cap(st.done) < len(atoms) {
		st.done = make([]bool, len(atoms))
	}
	done := st.done[:len(atoms)]
	for i := range done {
		done[i] = false
	}
	return st.Search(atoms, done, fn)
}

// Exists reports whether some extension of the current bindings maps
// atoms into the database.
func (st *State) Exists(atoms []CAtom) bool {
	found := false
	st.ForEach(atoms, func() bool {
		found = true
		return false
	})
	return found
}

// PackApplied appends the packed id key of ca's instantiation under the
// current bindings to dst (the id-space analogue of
// Database.AppliedKey). ok is false when a position is an unbound
// variable or an unresolved ground term: the instantiation is not a
// ground fact of the database.
func (st *State) PackApplied(dst []byte, ca *CAtom) ([]byte, bool) {
	for k := range ca.Pos {
		p := &ca.Pos[k]
		var id uint32
		if p.Slot >= 0 {
			if !st.Bd[p.Slot] {
				return dst, false
			}
			id = st.B[p.Slot]
		} else {
			if !p.OK {
				return dst, false
			}
			id = p.ID
		}
		dst = append(dst, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return dst, true
}

// Materialize builds the instantiation of ca under the current bindings:
// bound slots become their interned terms, unbound slots keep the
// original variable. Like Subst.ApplyAtom, the atom's source span is
// dropped.
func (st *State) Materialize(ca *CAtom) core.Atom {
	out := core.Atom{Relation: ca.Atom.Relation}
	at := func(k int) core.Term {
		p := &ca.Pos[k]
		if p.Slot >= 0 {
			if st.Bd[p.Slot] {
				return st.DB.Term(st.B[p.Slot])
			}
			return p.Term
		}
		return p.Term
	}
	n := len(ca.Atom.Args)
	if n > 0 {
		out.Args = make([]core.Term, n)
		for k := 0; k < n; k++ {
			out.Args[k] = at(k)
		}
	}
	if ca.Atom.Annotation != nil {
		out.Annotation = make([]core.Term, len(ca.Atom.Annotation))
		for k := range ca.Atom.Annotation {
			out.Annotation[k] = at(n + k)
		}
	}
	return out
}
