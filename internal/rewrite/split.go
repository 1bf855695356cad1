package rewrite

import (
	"cmp"
	"math/bits"
	"slices"
	"strconv"

	"guardedrules/internal/core"
)

// split is the common shape of an rc- or rnc-rewriting of a non-guarded
// Datalog rule σ w.r.t. a selection µ: the body is partitioned into a
// removed part (the body of σ′, deriving the fresh atom H) and a kept part
// (the body of σ′′, deriving µ(head(σ))). hArgs and hAnn are the
// arguments and annotation of H(~y).
type split struct {
	rc            bool
	removed, kept []core.IDAtom // µ-images of the atoms pulled into σ′ and kept in σ′′
	head          core.IDAtom   // µ(head(σ))
	hArgs, hAnn   []int32
}

// buildSplit assembles the split of an admitted selection with keep-set
// keep.
func (e *expander) buildSplit(x *xrule, s *selection, rc bool, keep uint16) split {
	sp := split{rc: rc, head: s.applyAtom(x.head())}
	for i, a := range x.body() { // covered atoms are removed for rc, kept for rnc
		if (x.arg[i]&^s.dom == 0) == rc {
			sp.removed = append(sp.removed, s.applyAtom(a))
		} else {
			sp.kept = append(sp.kept, s.applyAtom(a))
		}
	}
	for m := keep; m != 0; m &= m - 1 {
		sp.hArgs = append(sp.hArgs, int32(bits.TrailingZeros16(m)))
	}
	// H carries the head annotation plus the annotation-level linkage: the
	// variables occurring on both sides of the split that are not already
	// arguments of H ride in its annotation. (The paper's "H has the
	// annotation of head(σ)" is the special case where annotations only
	// flow through the head.) Annotation variables must be bound on the
	// removed side (the body of σ′); head-annotation variables bound only
	// on the kept side are dropped from H (σ′′ binds them itself).
	const removed, kept, headAnn = 1, 2, 4
	mark := make([]uint8, len(x.vars))
	for i, a := range slices.Concat(sp.removed, sp.kept, []core.IDAtom{sp.head}) {
		side := uint8(kept)
		if i < len(sp.removed) {
			side = removed
		}
		for _, v := range a.Args {
			mark[v] |= side
		}
	}
	for _, v := range sp.head.Args[:e.rels[sp.head.Rel].AnnArity] {
		mark[v] |= headAnn
	}
	for v, m := range mark {
		if m&removed != 0 && (m&headAnn != 0 || m&kept != 0 && keep&(1<<v) == 0) {
			sp.hAnn = append(sp.hAnn, int32(v))
		}
	}
	return sp
}

// canonSplit returns a key that is identical exactly for isomorphic
// splits of one kind, and reorders H's arguments and annotation into a
// deterministic, isomorphism-respecting order. Each split is processed
// once globally, and its σ′/σ′′ pair shares one H instance, so the order
// only needs to be consistent within the pair. The atoms are tagged by
// side, H's variables by unary atoms, and the tagged relations are ranked
// as their tag followed by their name would sort.
func (e *expander) canonSplit(x *xrule, sp *split) string {
	var table []int32 // the split's relations in name order
	for _, a := range slices.Concat(sp.removed, sp.kept, []core.IDAtom{sp.head}) {
		if !slices.Contains(table, a.Rel) {
			table = append(table, a.Rel)
		}
	}
	slices.SortFunc(table, func(a, b int32) int {
		ra, rb := e.rels[a], e.rels[b]
		return cmp.Or(cmp.Compare(ra.Name, rb.Name), cmp.Compare(ra.AnnArity, rb.AnnArity), cmp.Compare(ra.Arity, rb.Arity))
	})
	// Tags in name order: "AV" H annotation, "HD" head, "KP" kept, "KV" H
	// argument, "RM" removed.
	m := int32(len(table))
	var tagged []core.IDAtom
	tag := func(base int32, atoms ...core.IDAtom) {
		for _, a := range atoms {
			tagged = append(tagged, core.IDAtom{Rel: base + int32(slices.Index(table, a.Rel)), Args: a.Args})
		}
	}
	tag(2+2*m, sp.removed...)
	tag(1+m, sp.kept...)
	tag(1, sp.head)
	for i := range sp.hArgs {
		tagged = append(tagged, core.IDAtom{Rel: 1 + 2*m, Args: sp.hArgs[i : i+1]})
	}
	for i := range sp.hAnn {
		tagged = append(tagged, core.IDAtom{Rel: 0, Args: sp.hAnn[i : i+1]})
	}
	ser, nums := e.cz.Canon(tagged, int32(len(x.vars)), nil)
	canonVarOrder(sp.hArgs, nums, x.vars)
	canonVarOrder(sp.hAnn, nums, x.vars)
	return strconv.FormatBool(sp.rc) + e.cz.Key(table, ser)
}

// canonVarOrder sorts vars by an isomorphism-invariant criterion derived
// from the numberings: each variable is keyed by the sorted vector of its
// indices across all optimal numberings, then by its name.
func canonVarOrder(vars []int32, nums [][]int32, names []core.Term) {
	idx := make([][]int32, len(names))
	for _, v := range vars {
		for _, num := range nums {
			idx[v] = append(idx[v], num[v])
		}
		slices.Sort(idx[v])
	}
	slices.SortFunc(vars, func(a, b int32) int {
		return cmp.Or(slices.Compare(idx[a], idx[b]), cmp.Compare(names[a].Name, names[b].Name))
	})
}
