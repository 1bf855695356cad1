// Package classify implements the guardedness taxonomy of the paper
// (Definitions 1–3): guarded, frontier-guarded, weakly (frontier-)guarded
// and nearly (frontier-)guarded rules, built on the affected-position
// analysis of Definition 2. It also implements the proper-theory position
// reordering of Definition 16.
//
// For stratified theories (Section 8), all notions are computed on the
// theory obtained by dropping negated body atoms.
package classify

import (
	"fmt"
	"slices"
	"sort"

	"guardedrules/internal/core"
)

// Position is an argument position (R, i) of a relation, 0-based.
// Annotation positions are never affected and are not tracked.
type Position struct {
	Rel   core.RelKey
	Index int
}

func (p Position) String() string { return fmt.Sprintf("(%s,%d)", p.Rel.Name, p.Index+1) }

// PosSet is a set of positions.
type PosSet map[Position]bool

// posOf returns the positions of atoms where the variable x occurs as an
// argument — pos(Γ, x) of Definition 2.
func posOf(atoms []core.Atom, x core.Term) []Position {
	var out []Position
	for _, a := range atoms {
		for i, t := range a.Args {
			if t == x {
				out = append(out, Position{a.Key(), i})
			}
		}
	}
	return out
}

// AffectedPositions computes ap(Σ) (Definition 2): the least set containing
// every head position of an existential variable, closed under propagation
// through rules whose body occurrences of a variable are all affected.
// Negated body atoms are ignored.
func AffectedPositions(th *core.Theory) PosSet {
	ap := make(PosSet)
	// A flow carries a universal variable's body positions to its head
	// positions: once all the former are affected, so are the latter.
	type flow struct{ body, head []Position }
	var flows []flow
	for _, r := range th.Rules {
		// (i) positions of existential variables in heads.
		ev := r.EVarSet()
		for _, h := range r.Head {
			for i, t := range h.Args {
				if t.IsVar() && ev.Has(t) {
					ap[Position{h.Key(), i}] = true
				}
			}
		}
		body := r.PositiveBody()
		for x := range r.UVars() {
			f := flow{posOf(body, x), posOf(r.Head, x)}
			if len(f.body) > 0 && len(f.head) > 0 {
				flows = append(flows, f)
			}
		}
	}
	// (ii) propagate until fixpoint.
	for changed := true; changed; {
		changed = false
		for _, f := range flows {
			all := true
			for _, p := range f.body {
				if !ap[p] {
					all = false
					break
				}
			}
			if !all {
				continue
			}
			for _, p := range f.head {
				if !ap[p] {
					ap[p] = true
					changed = true
				}
			}
		}
	}
	return ap
}

// Unsafe returns unsafe(σ, Σ) restricted to the universal variables of σ:
// the variables whose body occurrences are all in affected positions. The
// ap set must come from AffectedPositions of the enclosing theory.
func Unsafe(r *core.Rule, ap PosSet) core.TermSet {
	out := make(core.TermSet)
	body := r.PositiveBody()
	for x := range r.UVars() {
		bodyPos := posOf(body, x)
		if len(bodyPos) == 0 {
			// A variable occurring only in negated atoms cannot be bound to
			// a null (it is grounded by safety); treat as safe.
			continue
		}
		all := true
		for _, p := range bodyPos {
			if !ap[p] {
				all = false
				break
			}
		}
		if all {
			out.Add(x)
		}
	}
	return out
}

// GuardResidue returns the best guard candidate for covering need among
// the positive body atoms of r — the atom whose argument variables cover
// the most variables of need, the earliest in body order on ties — and the
// residue need \ vars(candidate): the variables the candidate fails to
// cover. The residue is empty exactly when r has a body atom guarding all
// of need, and the candidate then is the first such atom, so callers that
// only test guardedness and callers that explain a failure (internal/lint)
// share one coverage computation. With an empty need, or when r has no
// positive body atom, the zero atom is returned; the residue then is need
// itself.
func GuardResidue(r *core.Rule, need core.TermSet) (core.Atom, core.TermSet) {
	if len(need) == 0 {
		return core.Atom{}, nil
	}
	best, bestCover := -1, -1
	for i, l := range r.Body {
		if l.Negated {
			continue
		}
		cover := 0
		for j, t := range l.Atom.Args {
			if need.Has(t) && !slices.Contains(l.Atom.Args[:j], t) {
				cover++
			}
		}
		if cover > bestCover {
			best, bestCover = i, cover
			if cover == len(need) {
				return l.Atom, nil
			}
		}
	}
	var guard core.Atom
	if best >= 0 {
		guard = r.Body[best].Atom
	}
	residue := make(core.TermSet, len(need))
	for v := range need {
		if !slices.Contains(guard.Args, v) {
			residue.Add(v)
		}
	}
	return guard, residue
}

// guardFor returns a positive body atom containing every variable of need,
// or ok=false. When need is empty any rule qualifies (an empty guard).
func guardFor(r *core.Rule, need core.TermSet) (core.Atom, bool) {
	a, residue := GuardResidue(r, need)
	return a, len(residue) == 0
}

// IsGuarded reports whether σ has a body atom containing uvars(σ)
// (Definition 1). Rules without universal variables count as guarded.
func IsGuarded(r *core.Rule) bool {
	_, ok := guardFor(r, r.UVars())
	return ok
}

// Guard returns a guard atom of a guarded rule.
func Guard(r *core.Rule) (core.Atom, bool) { return guardFor(r, r.UVars()) }

// IsFrontierGuarded reports whether σ has a body atom containing fvars(σ)
// (Definition 1).
func IsFrontierGuarded(r *core.Rule) bool {
	_, ok := guardFor(r, r.FVars())
	return ok
}

// FrontierGuard returns fg(σ), an arbitrary but fixed frontier guard: the
// first body atom containing all frontier variables.
func FrontierGuard(r *core.Rule) (core.Atom, bool) { return guardFor(r, r.FVars()) }

// IsWeaklyGuarded reports whether σ has a body atom containing
// uvars(σ) ∩ unsafe(σ,Σ) (Definition 2).
func IsWeaklyGuarded(r *core.Rule, ap PosSet) bool {
	_, ok := guardFor(r, Unsafe(r, ap))
	return ok
}

// IsWeaklyFrontierGuarded reports whether σ has a body atom containing
// fvars(σ) ∩ unsafe(σ,Σ).
func IsWeaklyFrontierGuarded(r *core.Rule, ap PosSet) bool {
	_, ok := guardFor(r, r.FVars().Intersect(Unsafe(r, ap)))
	return ok
}

// IsNearlyGuarded reports whether σ is guarded, or has no unsafe variables
// and no existential variables (Definition 3).
func IsNearlyGuarded(r *core.Rule, ap PosSet) bool {
	if IsGuarded(r) {
		return true
	}
	return len(Unsafe(r, ap)) == 0 && len(r.Exist) == 0
}

// IsNearlyFrontierGuarded reports whether σ is frontier-guarded, or has no
// unsafe variables and no existential variables.
func IsNearlyFrontierGuarded(r *core.Rule, ap PosSet) bool {
	if IsFrontierGuarded(r) {
		return true
	}
	return len(Unsafe(r, ap)) == 0 && len(r.Exist) == 0
}

// Fragment is a rule language of Figure 1.
type Fragment int

const (
	Datalog Fragment = iota
	Guarded
	FrontierGuarded
	NearlyGuarded
	NearlyFrontierGuarded
	WeaklyGuarded
	WeaklyFrontierGuarded
)

func (f Fragment) String() string {
	switch f {
	case Datalog:
		return "datalog"
	case Guarded:
		return "guarded"
	case FrontierGuarded:
		return "frontier-guarded"
	case NearlyGuarded:
		return "nearly guarded"
	case NearlyFrontierGuarded:
		return "nearly frontier-guarded"
	case WeaklyGuarded:
		return "weakly guarded"
	case WeaklyFrontierGuarded:
		return "weakly frontier-guarded"
	default:
		return fmt.Sprintf("Fragment(%d)", int(f))
	}
}

// Report describes the fragments a theory belongs to.
type Report struct {
	AP       PosSet
	Member   map[Fragment]bool
	Offender map[Fragment]*core.Rule // a rule breaking membership, if any
}

// Classify computes fragment membership of the theory.
func Classify(th *core.Theory) *Report {
	ap := AffectedPositions(th)
	rep := &Report{
		AP:       ap,
		Member:   make(map[Fragment]bool),
		Offender: make(map[Fragment]*core.Rule),
	}
	checks := []struct {
		f  Fragment
		ok func(*core.Rule) bool
	}{
		{Datalog, func(r *core.Rule) bool { return r.IsDatalog() }},
		{Guarded, IsGuarded},
		{FrontierGuarded, IsFrontierGuarded},
		{NearlyGuarded, func(r *core.Rule) bool { return IsNearlyGuarded(r, ap) }},
		{NearlyFrontierGuarded, func(r *core.Rule) bool { return IsNearlyFrontierGuarded(r, ap) }},
		{WeaklyGuarded, func(r *core.Rule) bool { return IsWeaklyGuarded(r, ap) }},
		{WeaklyFrontierGuarded, func(r *core.Rule) bool { return IsWeaklyFrontierGuarded(r, ap) }},
	}
	for _, c := range checks {
		rep.Member[c.f] = true
		for _, r := range th.Rules {
			if !c.ok(r) {
				rep.Member[c.f] = false
				rep.Offender[c.f] = r
				break
			}
		}
	}
	return rep
}

// Fragments returns the fragments th belongs to, most restrictive first.
func (rep *Report) Fragments() []Fragment {
	var out []Fragment
	for f := Datalog; f <= WeaklyFrontierGuarded; f++ {
		if rep.Member[f] {
			out = append(out, f)
		}
	}
	return out
}

// SortedAP returns the affected positions in deterministic order.
func (rep *Report) SortedAP() []Position {
	out := make([]Position, 0, len(rep.AP))
	for p := range rep.AP {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rel.Name != out[j].Rel.Name {
			return out[i].Rel.Name < out[j].Rel.Name
		}
		return out[i].Index < out[j].Index
	})
	return out
}
