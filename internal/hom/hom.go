// Package hom implements homomorphism search from sets of atoms into
// databases (Section 2 of the paper): a homomorphism maps variables to
// terms of the database, is the identity on constants, and must preserve
// every atom. It also provides homomorphic-equivalence checks between
// databases, used to compare chase results.
//
// Every searcher and the join planner read a concrete
// *database.Database: the one fact-store type, so the hot loops make
// direct, inlinable calls rather than interface dispatch.
package hom

import (
	"guardedrules/internal/core"
	"guardedrules/internal/database"
)

// ForEach enumerates homomorphisms h extending init such that h(atoms) ⊆
// db, calling fn for each. Enumeration stops early when fn returns false.
// ForEach reports whether enumeration ran to completion (i.e. fn never
// returned false). Atoms must not contain negated literals; only variables
// are free (nulls in atoms must match exactly).
//
// For performance the search binds variables in place: fn receives the
// shared substitution, valid only for the duration of the call — clone it
// to retain it. The init map is used as the working map and is restored
// to its original contents when ForEach returns.
func ForEach(atoms []core.Atom, db *database.Database, init core.Subst, fn func(core.Subst) bool) bool {
	s := init
	if s == nil {
		s = core.Subst{}
	}
	return search(atoms, make([]bool, len(atoms)), db, s, fn)
}

// FindAll returns up to limit homomorphisms (limit ≤ 0 means all).
func FindAll(atoms []core.Atom, db *database.Database, init core.Subst, limit int) []core.Subst {
	var out []core.Subst
	ForEach(atoms, db, init, func(s core.Subst) bool {
		out = append(out, s.Clone())
		return limit <= 0 || len(out) < limit
	})
	return out
}

// Exists reports whether some homomorphism extending init maps atoms into
// db.
func Exists(atoms []core.Atom, db *database.Database, init core.Subst) bool {
	found := false
	ForEach(atoms, db, init, func(core.Subst) bool {
		found = true
		return false
	})
	return found
}

// search backtracks over the unmatched atoms, always expanding the most
// constrained one (fewest candidate facts under the current substitution).
// Bindings are made in place on the shared substitution and undone via a
// trail, so no maps are cloned on the hot path; callbacks receive the
// shared map and must copy it if they retain it.
func search(atoms []core.Atom, done []bool, db *database.Database, s core.Subst, fn func(core.Subst) bool) bool {
	best := -1
	bestCount := -1
	bestPos := -1
	var bestID uint32
	for i, a := range atoms {
		if done[i] {
			continue
		}
		pos, id, count := bestIndex(a, db, s)
		if best == -1 || count < bestCount {
			best, bestCount, bestPos, bestID = i, count, pos, id
			if count == 0 {
				return true // dead branch
			}
		}
	}
	if best == -1 {
		return fn(s)
	}
	done[best] = true
	defer func() { done[best] = false }()
	pattern := atoms[best]
	rk := pattern.Key()
	cont := true
	try := func(fact core.Atom) bool {
		trail, ok := MatchInPlace(pattern, fact, s)
		if ok {
			if !search(atoms, done, db, s, fn) {
				cont = false
			}
		}
		for _, v := range trail {
			delete(s, v)
		}
		return cont
	}
	if bestPos >= 0 {
		db.ForEachWithID(rk, bestPos, bestID, try)
	} else {
		db.ForEachFact(rk, try)
	}
	return cont
}

// bestIndex picks the tightest index for the pattern under the current
// bindings: the ground position with the fewest facts, or the whole
// relation when no position is ground. It returns the flat position (-1
// for a full scan), the interned id of its term, and the candidate count.
// Terms are resolved to database ids once here, so the subsequent index
// scan avoids re-hashing term structs.
func bestIndex(pattern core.Atom, db *database.Database, s core.Subst) (int, uint32, int) {
	rk := pattern.Key()
	bestPos := -1
	var bestID uint32
	bestCount := db.RelSize(rk)
	consider := func(flatPos int, t core.Term) {
		if t.IsVar() {
			t = s.Apply(t)
			if t.IsVar() {
				return
			}
		}
		// A term the database has never interned occurs in no fact: the
		// position has zero candidates and the branch is dead.
		c := 0
		var id uint32
		if tid, ok := db.TermID(t); ok {
			id = tid
			c = db.CountWithID(rk, flatPos, tid)
		}
		if c < bestCount || bestPos == -1 && c <= bestCount {
			bestCount = c
			bestPos = flatPos
			bestID = id
		}
	}
	for i, t := range pattern.Args {
		consider(i, t)
	}
	for i, t := range pattern.Annotation {
		consider(len(pattern.Args)+i, t)
	}
	return bestPos, bestID, bestCount
}

// MatchInPlace extends s so that s(pattern) = fact, binding unbound
// variables in place and returning the trail of newly bound variables
// (callers undo the bindings by deleting the trail from s). On mismatch it
// undoes its own bindings and returns ok=false. The relation names are not
// compared; callers match patterns against facts of the same relation key.
func MatchInPlace(pattern, fact core.Atom, s core.Subst) ([]core.Term, bool) {
	var trail []core.Term
	bind := func(p, f core.Term) bool {
		if p.IsVar() {
			if b, bound := s[p]; bound {
				return b == f
			}
			s[p] = f
			trail = append(trail, p)
			return true
		}
		return p == f
	}
	ok := len(pattern.Args) == len(fact.Args) && len(pattern.Annotation) == len(fact.Annotation)
	if ok {
		for i := range pattern.Args {
			if !bind(pattern.Args[i], fact.Args[i]) {
				ok = false
				break
			}
		}
	}
	if ok {
		for i := range pattern.Annotation {
			if !bind(pattern.Annotation[i], fact.Annotation[i]) {
				ok = false
				break
			}
		}
	}
	if !ok {
		for _, v := range trail {
			delete(s, v)
		}
		return nil, false
	}
	return trail, true
}

// IntoAtoms reports whether there is a homomorphism from src into the
// finite atom set dst, where the labeled nulls of src are treated as
// additional variables (constants remain fixed). This is the relation
// written chase(Σ,D) ⊆ chase(Σ',D') in the paper.
func IntoAtoms(src, dst []core.Atom) bool {
	renamed := make([]core.Atom, len(src))
	for i, a := range src {
		renamed[i] = nullsToVars(a)
	}
	return Exists(renamed, database.FromAtoms(dst), nil)
}

// Equivalent reports whether the two atom sets are homomorphically
// equivalent (nulls treated as variables both ways).
func Equivalent(a, b []core.Atom) bool {
	return IntoAtoms(a, b) && IntoAtoms(b, a)
}

func nullsToVars(a core.Atom) core.Atom {
	out := a.Clone()
	for i, t := range out.Args {
		if t.IsNull() {
			out.Args[i] = core.Var("\x00null:" + t.Name)
		}
	}
	for i, t := range out.Annotation {
		if t.IsNull() {
			out.Annotation[i] = core.Var("\x00null:" + t.Name)
		}
	}
	return out
}
