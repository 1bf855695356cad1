package hom

import (
	"fmt"
	"strings"

	"guardedrules/internal/database"
)

// This file is the cost-based join layer shared by the fixpoint engines:
// a planner that fixes the atom order and the access path of every join
// step from the database's cardinality statistics, and an executor
// (State.SearchPlan) that runs the fixed plan. A step's access path
// follows from how many of its positions are bound: none is a scan,
// some a seek on the shortest posting list among them, all a check in
// the relation's seen-set.
//
// Determinism: for a fixed plan, every access path enumerates an atom's
// matching facts in insertion order (a scan trivially, a seek because
// posting lists are built in insertion order, a check because it yields
// at most one fact), so the complete enumeration order is a function of
// the plan alone, whichever posting list a seek walks.

// AccessKind is a step's planned access path.
type AccessKind uint8

const (
	// AccessScan enumerates the whole relation (no position bound).
	AccessScan AccessKind = iota
	// AccessSeek walks the shortest posting list among the bound
	// positions, picked at run time; Match filters the other positions.
	AccessSeek
	// AccessCheck looks the fully bound instantiation up in the
	// relation's seen-set (Database.SeenIDs): no posting list is walked.
	AccessCheck
)

// Step is one planned join step: which atom to expand and how.
type Step struct {
	Atom int        // index into the planned atom slice
	Kind AccessKind // access path
}

// Plan is a fixed join order with per-step access paths. The zero value
// is an empty plan (a body with no atoms).
type Plan struct {
	Steps []Step
}

// String renders the plan compactly, for tests: one step per arrow,
// e.g. "#1[scan]->#0[seek]->#2[check]".
func (p Plan) String() string {
	var sb strings.Builder
	for i, s := range p.Steps {
		if i > 0 {
			sb.WriteString("->")
		}
		fmt.Fprintf(&sb, "#%d[%s]", s.Atom, [...]string{"scan", "seek", "check"}[s.Kind])
	}
	return sb.String()
}

// estimate returns the planner's cardinality estimate for expanding ca
// under the bound-slot mask, together with the number of bound flat
// positions. Ground positions use their exact posting-list length
// (constants are resolved before planning); bound variable positions
// use the average list length RelSize/DistinctAt. Independence of
// positions is assumed, as usual. An unresolved ground term yields 0:
// the atom matches nothing, and ordering it first kills the branch
// immediately.
func estimate(ca *CAtom, bound []bool) (float64, int) {
	size := ca.Rel.Len()
	est := float64(size)
	nbound := 0
	for k := range ca.Pos {
		p := &ca.Pos[k]
		if p.Slot >= 0 {
			if !bound[p.Slot] {
				continue
			}
			nbound++
			if d := ca.Rel.Distinct(k); d > 0 {
				est /= float64(d)
			}
			continue
		}
		nbound++
		if !p.OK {
			est = 0
		} else if size > 0 {
			est *= float64(len(ca.Rel.Posting(k, p.ID))) / float64(size)
		}
	}
	return est, nbound
}

// PlanBody plans a join over atoms: a greedy cost-based order (always
// expand the atom with the smallest cardinality estimate next; ties
// break on the lower atom index) with per-step access paths. bound marks
// the slots already bound before the first step — a delta-driven engine
// passes the pattern atom's slots — with one entry per slot of the
// compiled atoms; it is not modified. Atoms must be Resolved first: the
// estimates read their handles and resolved constant ids, and an
// unresolved constant (est 0) is ordered first so execution dies out
// before touching any index.
func PlanBody(atoms []CAtom, bound []bool) Plan {
	b := append([]bool(nil), bound...)
	taken := make([]bool, len(atoms))
	var p Plan
	for range atoms {
		best, bestEst, bestBound := -1, 0.0, 0
		for i := range atoms {
			if taken[i] {
				continue
			}
			est, nbound := estimate(&atoms[i], b)
			if best == -1 || est < bestEst {
				best, bestEst, bestBound = i, est, nbound
			}
		}
		taken[best] = true
		ca := &atoms[best]
		kind := AccessSeek
		switch bestBound {
		case 0:
			kind = AccessScan
		case len(ca.Pos):
			kind = AccessCheck
		}
		p.Steps = append(p.Steps, Step{Atom: best, Kind: kind})
		for k := range ca.Pos {
			if s := ca.Pos[k].Slot; s >= 0 {
				b[s] = true
			}
		}
	}
	return p
}

// posIDOf resolves flat position k of ca under the current bindings; ok
// is false for an unresolved ground term or an unbound slot.
func (st *State) posIDOf(ca *CAtom, k int) (uint32, bool) {
	p := &ca.Pos[k]
	if p.Slot >= 0 {
		return st.B[p.Slot], st.Bd[p.Slot]
	}
	return p.ID, p.OK
}

// SearchPlan enumerates all matches of atoms in the fixed order given by
// plan, calling fn at every complete match; fn returning false stops the
// enumeration, and SearchPlan reports whether it ran to completion.
// Bindings made during the search are unwound before returning. Unlike
// Search, the order is static: the enumeration order is exactly (plan,
// insertion order of each relation). Every step reads its atom's handle,
// so the atoms must be Resolved against st.DB since its Epoch last moved.
func (st *State) SearchPlan(atoms []CAtom, plan *Plan, fn func() bool) bool {
	return st.searchStep(atoms, plan.Steps, fn)
}

func (st *State) searchStep(atoms []CAtom, steps []Step, fn func() bool) bool {
	if len(steps) == 0 {
		return fn()
	}
	s := &steps[0]
	ca := &atoms[s.Atom]
	if s.Kind == AccessCheck {
		var buf [8]uint32
		if ids, ok := st.PackIDs(buf[:0], ca); !ok || !ca.Rel.Has(ids) {
			return true
		}
		return st.searchStep(atoms, steps[1:], fn)
	}
	n := ca.Rel.Len()
	var list []int32
	if s.Kind == AccessSeek {
		// The shortest posting list among the bound positions (a planner
		// only seeks statically bound ones). An unresolved constant
		// matches nothing.
		seek := false
		for k := range ca.Pos {
			p := &ca.Pos[k]
			if p.Slot >= 0 && !st.Bd[p.Slot] {
				continue
			}
			id, ok := st.posIDOf(ca, k)
			if !ok {
				return true
			}
			if l := ca.Rel.Posting(k, id); !seek || len(l) < len(list) {
				list, seek = l, true
			}
		}
		n = len(list)
	}
	return st.expand(ca, ca.Rel, list, n, func() bool { return st.searchStep(atoms, steps[1:], fn) })
}

// expand matches ca against the facts of r at the ordinals of list (the
// first n facts when list is nil), calling next under the bindings of
// each match; it stops and reports false once next does.
func (st *State) expand(ca *CAtom, r *database.Rel, list []int32, n int, next func() bool) bool {
	for i := 0; i < n; i++ {
		ix := i
		if list != nil {
			ix = int(list[i])
		}
		mark := len(st.trail)
		cont := !st.Match(ca, r.Tuple(ix)) || next()
		st.Unwind(mark)
		if !cont {
			return false
		}
	}
	return true
}

// PackIDs appends the packed id tuple of ca's instantiation under the
// current bindings to dst (the id-slice sibling of PackApplied, pairing
// with Database.SeenIDs). ok is false when a position is an unbound
// variable or an unresolved ground term.
func (st *State) PackIDs(dst []uint32, ca *CAtom) ([]uint32, bool) {
	for k := range ca.Pos {
		id, ok := st.posIDOf(ca, k)
		if !ok {
			return dst, false
		}
		dst = append(dst, id)
	}
	return dst, true
}
