package hom

import (
	"guardedrules/internal/budget"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
)

// CoreOptions bounds a core computation.
type CoreOptions struct {
	// Budget, when non-nil, governs the search like every other engine:
	// cancellation and deadline are polled between candidate
	// endomorphisms, MaxSteps caps total candidates inspected across all
	// rounds, and exhaustion returns the (sound) current set with
	// exact=false and a typed *budget.Error.
	Budget *budget.T
}

// Core computes the core of the atom set: a homomorphically equivalent
// subset admitting no proper endomorphism. Constants are fixed, labeled
// nulls are mappable. The chase is unique up to homomorphic equivalence,
// so cores give canonical representatives of chase results — the oblivious
// and restricted chase of a terminating theory have the same core.
//
// Core search is NP-hard in general; at most roundCandidates
// endomorphisms are inspected per round. When that bound is hit, the
// (sound) current set is returned with exact=false.
func Core(atoms []core.Atom) (result []core.Atom, exact bool) {
	result, exact, _ = CoreOpts(atoms, CoreOptions{})
	return result, exact
}

// roundCandidates bounds the endomorphisms inspected per reduction round.
// Hitting it makes the result inexact but stays error-free: the search
// was bounded, not aborted.
const roundCandidates = 100_000

// corePollInterval is how many candidate endomorphisms are inspected
// between cancellation polls.
const corePollInterval = 64

// CoreOpts is Core under explicit options: a governed, cancellable core
// computation. Every return value is a sound representative (a superset
// of some core of the input, homomorphically equivalent to it); exact
// reports whether the endomorphism search ran to completion. On budget
// exhaustion the current set is returned with exact=false and a typed
// *budget.Error.
func CoreOpts(atoms []core.Atom, opts CoreOptions) (result []core.Atom, exact bool, err error) {
	tk := budget.Start(opts.Budget)
	defer tk.Stop()
	maxSteps := budget.Cap(opts.Budget, func(b *budget.T) int { return b.MaxSteps }, 0)
	cur := dedup(atoms)
	for {
		// Round checkpoint: a canceled or expired search returns the
		// current (sound) set.
		if cerr := tk.Check(); cerr != nil {
			return cur, false, cerr
		}
		if maxSteps > 0 && tk.Usage().Steps >= maxSteps {
			return cur, false, tk.Exhausted(budget.ErrStepLimit)
		}
		// A step ceiling tightens the per-round candidate cap so the run
		// never inspects candidates past the budget.
		roundCap := roundCandidates
		if maxSteps > 0 {
			if rem := maxSteps - tk.Usage().Steps; rem < roundCap {
				roundCap = rem
			}
		}
		h, found, complete := reducingEndo(cur, roundCap, tk)
		if tk.Canceled() {
			return cur, false, tk.Check()
		}
		if !found {
			if !complete && maxSteps > 0 && tk.Usage().Steps >= maxSteps {
				return cur, false, tk.Exhausted(budget.ErrStepLimit)
			}
			return cur, complete, nil
		}
		// Stabilize h: composing an endomorphism with itself |nulls| times
		// yields a retraction (idempotent on its image).
		stable := h
		for i := 0; i < len(nullsOf(cur)); i++ {
			stable = stable.Compose(stable)
		}
		var next []core.Atom
		for _, a := range cur {
			next = append(next, applyToNulls(stable, a))
		}
		next = dedup(next)
		if len(nullsOf(next)) >= len(nullsOf(cur)) && len(next) >= len(cur) {
			// No progress (should not happen for a reducing endo).
			return cur, true, nil
		}
		cur = next
	}
}

// IsCore reports whether the atom set admits no proper endomorphism
// (within the per-round candidate bound).
func IsCore(atoms []core.Atom) bool {
	_, found, _ := reducingEndo(dedup(atoms), roundCandidates, nil)
	return !found
}

// reducingEndo searches for an endomorphism that is non-injective on the
// nulls or maps a null to a constant — exactly the endomorphisms whose
// stabilization drops a null. It reports whether the search space was
// exhausted. A non-nil tracker is polled every corePollInterval
// candidates (aborting the enumeration on cancellation) and counts every
// candidate as a step.
func reducingEndo(atoms []core.Atom, maxCandidates int, tk *budget.Tracker) (core.Subst, bool, bool) {
	nulls := nullsOf(atoms)
	if len(nulls) == 0 {
		return nil, false, true
	}
	pattern := make([]core.Atom, len(atoms))
	for i, a := range atoms {
		pattern[i] = nullsToVars(a)
	}
	db := database.FromAtoms(atoms)
	var out core.Subst
	tried := 0
	complete := ForEach(pattern, db, nil, func(s core.Subst) bool {
		tried++
		tk.AddSteps(1)
		if tried%corePollInterval == 0 && tk.Canceled() {
			return false // abort; CoreOpts observes the cancellation
		}
		image := make(core.TermSet)
		reducing := false
		for _, n := range nulls {
			t := s.Apply(core.Var("\x00null:" + n.Name))
			if t.IsConst() || image.Has(t) {
				reducing = true
				break
			}
			image.Add(t)
		}
		if reducing {
			// Re-key the substitution from placeholder variables back to
			// the nulls.
			out = core.Subst{}
			for _, n := range nulls {
				out[n] = s.Apply(core.Var("\x00null:" + n.Name))
			}
			return false
		}
		return tried < maxCandidates
	})
	return out, out != nil, complete || out != nil
}

// applyToNulls applies a null-keyed substitution to the atom.
func applyToNulls(s core.Subst, a core.Atom) core.Atom {
	out := a.Clone()
	for i, t := range out.Args {
		if t.IsNull() {
			if v, ok := s[t]; ok {
				out.Args[i] = v
			}
		}
	}
	for i, t := range out.Annotation {
		if t.IsNull() {
			if v, ok := s[t]; ok {
				out.Annotation[i] = v
			}
		}
	}
	return out
}

func nullsOf(atoms []core.Atom) []core.Term {
	s := make(core.TermSet)
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.IsNull() {
				s.Add(t)
			}
		}
		for _, t := range a.Annotation {
			if t.IsNull() {
				s.Add(t)
			}
		}
	}
	return s.Sorted()
}

func dedup(atoms []core.Atom) []core.Atom {
	var out []core.Atom
	for _, a := range atoms {
		if !core.ContainsAtom(out, a) {
			out = append(out, a)
		}
	}
	return out
}
