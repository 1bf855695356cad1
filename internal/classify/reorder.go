package classify

import (
	"guardedrules/internal/core"
	"guardedrules/internal/database"
)

// Reorder is a per-relation permutation of argument positions making a
// theory proper (Definition 16): after reordering, every relation has its
// affected positions first, followed by non-affected positions only.
type Reorder struct {
	// perm[rk][i] is the old position stored at new position i.
	perm map[core.RelKey][]int
	// affected[rk] is the number of affected positions of rk (after
	// reordering these are positions 0..affected-1).
	affected map[core.RelKey]int
}

// ProperReorder computes the permutation making th proper. It must be
// applied consistently to the theory and to every database queried against
// it.
func ProperReorder(th *core.Theory) *Reorder {
	ap := AffectedPositions(th)
	ro := &Reorder{
		perm:     make(map[core.RelKey][]int),
		affected: make(map[core.RelKey]int),
	}
	for _, rk := range th.Relations() {
		var aff, non []int
		for i := 0; i < rk.Arity; i++ {
			if ap[Position{rk, i}] {
				aff = append(aff, i)
			} else {
				non = append(non, i)
			}
		}
		ro.perm[rk] = append(aff, non...)
		ro.affected[rk] = len(aff)
	}
	return ro
}

// AffectedCount returns the number of affected positions of rk (the "last
// affected position" index i of Definition 17).
func (ro *Reorder) AffectedCount(rk core.RelKey) int { return ro.affected[rk] }

// IsIdentity reports whether the reorder permutes nothing.
func (ro *Reorder) IsIdentity() bool {
	for _, p := range ro.perm {
		for i, old := range p {
			if i != old {
				return false
			}
		}
	}
	return true
}

// Atom returns the atom with arguments permuted into proper order. Atoms
// over relations unknown to the reorder are returned unchanged.
func (ro *Reorder) Atom(a core.Atom) core.Atom {
	p, ok := ro.perm[a.Key()]
	if !ok {
		return a
	}
	out := a.Clone()
	for i, old := range p {
		out.Args[i] = a.Args[old]
	}
	return out
}

// Undo inverts the permutation on an atom.
func (ro *Reorder) Undo(a core.Atom) core.Atom {
	p, ok := ro.perm[a.Key()]
	if !ok {
		return a
	}
	out := a.Clone()
	for i, old := range p {
		out.Args[old] = a.Args[i]
	}
	return out
}

// Theory returns the theory with every atom reordered.
func (ro *Reorder) Theory(th *core.Theory) *core.Theory {
	out := th.Clone()
	for _, r := range out.Rules {
		for i := range r.Body {
			r.Body[i].Atom = ro.Atom(r.Body[i].Atom)
		}
		for i := range r.Head {
			r.Head[i] = ro.Atom(r.Head[i])
		}
	}
	return out
}

// Database returns the database with every fact reordered.
func (ro *Reorder) Database(d *database.Database) *database.Database {
	out := database.New()
	for _, a := range d.UserFacts() {
		out.Add(ro.Atom(a))
	}
	return out
}

// UndoDatabase inverts the permutation on every fact of d.
func (ro *Reorder) UndoDatabase(d *database.Database) *database.Database {
	out := database.New()
	for _, a := range d.UserFacts() {
		out.Add(ro.Undo(a))
	}
	return out
}

// IsProper reports whether the theory is proper (Definition 16): no
// relation has an affected position to the right of a non-affected one.
func IsProper(th *core.Theory) bool {
	ap := AffectedPositions(th)
	for _, rk := range th.Relations() {
		seenNonAffected := false
		for i := 0; i < rk.Arity; i++ {
			if ap[Position{rk, i}] {
				if seenNonAffected {
					return false
				}
			} else {
				seenNonAffected = true
			}
		}
	}
	return true
}
