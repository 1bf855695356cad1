package rewrite

import (
	"fmt"

	"guardedrules/internal/classify"
	"guardedrules/internal/core"
)

// split is the common shape of an rc- or rnc-rewriting of a non-guarded
// Datalog rule σ w.r.t. a selection µ: the body is partitioned into a
// removed part (the body of σ′, deriving the fresh atom H) and a kept part
// (the body of σ′′, deriving µ(head(σ))).
type split struct {
	kind    string      // "rc" or "rnc"
	removed []core.Atom // µ-image of the atoms pulled into σ′
	kept    []core.Atom // µ-image of the atoms kept in σ′′
	head    core.Atom   // µ(head(σ))
	hAtom   core.Atom   // the fresh linking atom H(~y) with its annotation
}

// buildSplit assembles the split for a rule, selection and kind; it
// returns ok=false when the definitions' side conditions fail, and an
// error for a kind other than "rc"/"rnc" (an internal invariant violation,
// reported instead of panicking so engines stay recoverable). Following
// the proof of Theorem 1, an rc-rewriting is generated when the fixed
// frontier guard fg(σ) is outside the covered part (its image lies outside
// the tree node) and an rnc-rewriting when it is covered.
func buildSplit(r *core.Rule, sel selection, kind string) (split, bool, error) {
	cov := covered(r, sel)
	// Conditions (b) of Definitions 10 and 11 need a projectable variable
	// on the removed side, so that side must be non-empty.
	if kind == "rc" && len(cov) == 0 {
		return split{}, false, nil
	}
	if kind == "rnc" && len(cov) == len(r.Body) {
		return split{}, false, nil
	}
	if fg, ok := classify.FrontierGuard(r); ok && len(fg.Args) > 0 {
		fgCovered := false
		for _, a := range cov {
			if a.Equal(fg) {
				fgCovered = true
				break
			}
		}
		if kind == "rc" && fgCovered {
			return split{}, false, nil
		}
		if kind == "rnc" && !fgCovered {
			return split{}, false, nil
		}
	}
	covSet := make(map[string]bool, len(cov))
	for _, a := range cov {
		covSet[a.String()] = true
	}
	var rest []core.Atom
	for _, a := range r.PositiveBody() {
		if !covSet[a.String()] {
			rest = append(rest, a)
		}
	}
	keep := keepVars(r, sel, cov, kind)
	mCov := sel.apply(cov)
	mRest := sel.apply(rest)
	head := sel.m.ApplyAtom(r.Head[0])

	var removed, kept []core.Atom
	switch kind {
	case "rc":
		removed, kept = mCov, mRest
		// Condition (b) of Definition 10: µ(cov) must have a variable not
		// kept (a projected variable).
		if !hasProjectedVar(mCov, keep) {
			return split{}, false, nil
		}
	case "rnc":
		removed, kept = mRest, mCov
		// Condition (b) of Definition 11 is enforced during guard
		// enumeration (the guard must expose a projected variable of
		// µ(body\cov)); here we only require such a variable to exist.
		if !hasProjectedVar(mRest, keep) {
			return split{}, false, nil
		}
	default:
		return split{}, false, fmt.Errorf("rewrite: unknown split kind %q", kind)
	}

	h := core.Atom{
		Relation: "\x00H", // named canonically by canonSplit
		Args:     keep.Sorted(),
	}
	// H carries the head annotation plus the annotation-level linkage: the
	// variables occurring on both sides of the split that are not already
	// arguments of H ride in its annotation. (The paper's "H has the
	// annotation of head(σ)" is the special case where annotations only
	// flow through the head.)
	ann := make(core.TermSet)
	for _, a := range r.Head {
		ann.AddAll(sel.m.ApplyAtom(a).AnnVars())
	}
	removedVars := core.AllVarsOf(removed)
	keptVars := core.AllVarsOf(kept)
	keptVars.AddAll(head.AllVars())
	for v := range removedVars.Intersect(keptVars) {
		if !keep.Has(v) {
			ann.Add(v)
		}
	}
	// Annotation variables must be bound on the removed side (the body of
	// σ′); head-annotation variables bound only on the kept side are
	// dropped from H (σ′′ binds them itself).
	hAnn := make(core.TermSet)
	for v := range ann {
		if removedVars.Has(v) {
			hAnn.Add(v)
		}
	}
	if len(hAnn) > 0 {
		h.Annotation = hAnn.Sorted()
	}
	return split{kind: kind, removed: removed, kept: kept, head: head, hAtom: h}, true, nil
}

// hasProjectedVar reports whether the atoms contain an argument variable
// outside keep.
func hasProjectedVar(atoms []core.Atom, keep core.TermSet) bool {
	for v := range core.VarsOf(atoms) {
		if !keep.Has(v) {
			return true
		}
	}
	return false
}

// canonSplit canonicalizes a split: the returned key is identical exactly
// for isomorphic splits, and the H atom's arguments and annotation are
// reordered into a deterministic, isomorphism-respecting order. Each split
// is processed once globally, and its σ′/σ′′ pair shares one H instance,
// so the order only needs to be consistent within the pair.
func canonSplit(s split) (string, split) {
	var tagged []core.Atom
	for _, a := range s.removed {
		b := a.Clone()
		b.Relation = "RM\x60" + b.Relation
		tagged = append(tagged, b)
	}
	for _, a := range s.kept {
		b := a.Clone()
		b.Relation = "KP\x60" + b.Relation
		tagged = append(tagged, b)
	}
	hd := s.head.Clone()
	hd.Relation = "HD\x60" + hd.Relation
	tagged = append(tagged, hd)
	for _, v := range s.hAtom.Args {
		tagged = append(tagged, core.NewAtom("KV\x60", v))
	}
	for _, v := range s.hAtom.Annotation {
		tagged = append(tagged, core.NewAtom("AV\x60", v))
	}
	key, numberings := core.CanonicalAtomSet(tagged)
	key = s.kind + "|" + key

	out := s
	h := s.hAtom.Clone()
	h.Args = core.CanonicalVarOrder(h.Args, numberings)
	if len(h.Annotation) > 0 {
		h.Annotation = core.CanonicalVarOrder(h.Annotation, numberings)
	}
	out.hAtom = h
	return key, out
}
