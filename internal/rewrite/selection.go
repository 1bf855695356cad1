// Package rewrite implements the translation from (nearly)
// frontier-guarded theories to nearly guarded theories of Section 5.1 of
// the paper: selections (Definition 7), covered atoms (Definition 8),
// keep-sets (Definition 9), rc- and rnc-rewritings (Definitions 10, 11),
// the expansion ex(Σ) (Definition 12), the rewriting rew(Σ)
// (Definitions 13, 14, Theorem 1, Proposition 4), and the ACDom
// axiomatization Σ* (Definition 15, Proposition 5).
package rewrite

import (
	"math/bits"

	"guardedrules/internal/core"
)

// selection is a selection for a rule σ (Definition 7): a partial function
// µ from uvars(σ) to uvars(σ) with |ran(µ)| ≤ k, k the maximal relation
// arity of the theory, and img[x] = µ(x) for x in dom. Only idempotent
// selections are enumerated (µ(x) = x for x in ran(µ)): in the
// completeness argument a selection merges the variables that a chase
// homomorphism sends to the same term of a tree node and picks a
// representative per class, which is idempotent up to renaming.
type selection struct {
	dom uint16
	img [maxRuleVars]int8
}

// image is µ(m ∩ dom(µ)).
func (s *selection) image(m uint16) uint16 {
	var out uint16
	for m &= s.dom; m != 0; m &= m - 1 {
		out |= 1 << s.img[bits.TrailingZeros16(m)]
	}
	return out
}

// applyAtom is µ(a) of Definition 7.
func (s *selection) applyAtom(a core.IDAtom) core.IDAtom {
	out := core.IDAtom{Rel: a.Rel, Args: make([]int32, len(a.Args))}
	for i, v := range a.Args {
		if v >= 0 && s.dom&(1<<v) != 0 {
			v = int32(s.img[v])
		}
		out.Args[i] = v
	}
	return out
}

// selections calls fn on every idempotent selection over the variables
// uv with a non-empty range of at most k variables, and stops at fn's
// first error. The ranges come in lexicographic order of their variable
// ids; within a range, every other variable is left out of dom(µ) or
// mapped to each range element in turn. The empty selection covers no
// atoms and never yields a rewriting, so it is omitted.
func selections(uv uint16, k int, fn func(*selection) error) error {
	var ids []int8
	for m := uv; m != 0; m &= m - 1 {
		ids = append(ids, int8(bits.TrailingZeros16(m)))
	}
	var s selection
	var rest, ran []int8
	var mapRest func(i int) error
	mapRest = func(i int) error {
		if i == len(rest) {
			return fn(&s)
		}
		if err := mapRest(i + 1); err != nil {
			return err
		}
		x := rest[i]
		for _, t := range ran {
			s.dom, s.img[x] = s.dom|1<<x, t
			if err := mapRest(i + 1); err != nil {
				return err
			}
		}
		s.dom &^= 1 << x
		return nil
	}
	var chooseRange func(start int, mask uint16) error
	chooseRange = func(start int, mask uint16) error {
		if mask != 0 {
			s.dom, ran, rest = mask, ran[:0], rest[:0]
			for _, x := range ids {
				if mask&(1<<x) != 0 {
					ran, s.img[x] = append(ran, x), x
				} else {
					rest = append(rest, x)
				}
			}
			if err := mapRest(0); err != nil {
				return err
			}
		}
		if bits.OnesCount16(mask) == k {
			return nil
		}
		for i := start; i < len(ids); i++ {
			if err := chooseRange(i+1, mask|1<<ids[i]); err != nil {
				return err
			}
		}
		return nil
	}
	return chooseRange(0, 0)
}

// masks fills in the variable masks of x and returns it.
func (e *expander) masks(x *xrule) *xrule {
	body := x.body()
	x.arg, x.all = make([]uint16, len(body)), make([]uint16, len(body))
	for i, a := range body {
		x.arg[i], x.all[i] = e.argMask(a), varMask(a.Args)
		x.uv |= x.arg[i]
	}
	x.fv, x.headAll = e.argMask(x.head()), varMask(x.head().Args)
	n := bits.OnesCount16(x.uv)
	x.measure = n + 1
	for _, m := range x.arg {
		if x.fv&^m == 0 {
			if x.measure > n { // the first frontier guard
				x.fg = m
			}
			x.measure = min(x.measure, bits.OnesCount16(x.uv&^m))
		}
	}
	return x
}

// argMask is the set of argument variables of a; the annotation terms
// precede the arguments in a.Args.
func (e *expander) argMask(a core.IDAtom) uint16 {
	return varMask(a.Args[e.rels[a.Rel].AnnArity:])
}

// varMask is the set of universal variables among terms. Variables past
// the mask width only occur in annotations and are never in dom(µ).
func varMask(terms []int32) uint16 {
	var m uint16
	for _, v := range terms {
		if v >= 0 {
			m |= 1 << v
		}
	}
	return m
}

// cover is cov(σ,µ) (Definition 8), the body atoms whose argument
// variables lie in dom(µ): their number and variables, and the others'.
type cover struct {
	n                        int
	covArg, restArg, restAll uint16
}

func (x *xrule) cover(dom uint16) cover {
	var c cover
	for i, m := range x.arg {
		if m&^dom == 0 {
			c.n++
			c.covArg |= m
		} else {
			c.restArg |= m
			c.restAll |= x.all[i]
		}
	}
	return c
}

// admits reports whether the rc- (rc true) or rnc-rewriting of σ for µ
// meets the side conditions of Definitions 10 and 11, and returns
// keep(σ, µ) (Definition 9): every µ(x), x ∈ dom(µ), with x in
// body(σ)\cov(σ,µ) — or, for rc, in head(σ), which moves to σ′′ away
// from the covered atoms. For rnc the head stays with the covered atoms,
// which re-bind it (x2 of the paper's Example 5 is not kept). Following
// the proof of Theorem 1, rc applies when fg(σ) is outside the covered
// part (its image lies outside the tree node), rnc when it is covered.
func (x *xrule) admits(s *selection, c cover, rc bool) (keep uint16, ok bool) {
	// Conditions (b) need a projectable variable on the removed side, so
	// that side must be non-empty.
	if rc && c.n == 0 || !rc && c.n == len(x.arg) || x.fv != 0 && (x.fg&^s.dom == 0) == rc {
		return 0, false
	}
	if rc {
		// Condition (b) of Definition 10: µ(cov) must have a variable not
		// kept (a projected variable).
		keep = s.image(c.restAll | x.headAll)
		return keep, s.image(c.covArg)&^keep != 0
	}
	// Condition (b) of Definition 11 is enforced during guard enumeration
	// (the guard must expose a projected variable of µ(body\cov)); here
	// such a variable must only exist. Variables outside dom(µ) are never
	// kept.
	keep = s.image(c.restAll)
	return keep, c.restArg&^s.dom != 0 || s.image(c.restArg)&^keep != 0
}
