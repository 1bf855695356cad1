package core

import (
	"cmp"
	"slices"
)

// IDAtom is an atom in id-space: Rel is a relation id, and Args holds
// the annotation terms followed by the arguments, each either a
// rule-local variable v >= 0 or a non-variable term encoded as a
// negative id. The saturation of Definition 19 and the expansion of
// Definition 12 run over IDAtoms directly; CanonicalKey translates a
// term-space rule into them.
type IDAtom struct {
	Rel  int32
	Args []int32
}

// Canonizer computes canonical forms of id-space atom lists: the
// lexicographically least serialization over all atom orderings, with
// variables numbered by first occurrence. Two atom lists get the same
// serialization exactly when they are equal up to variable renaming and
// reordering, and every numbering that achieves it maps both onto the
// same numbered atom list. The search branches only on serialization
// ties. Its buffers are reused across calls, so a long-lived caller owns
// one; a Canonizer is not safe for concurrent use.
type Canonizer struct {
	num   []int32 // variable → canonical index, -1 while unnumbered
	next  int32
	used  []bool
	acc   []int32 // serialization of the atoms placed so far
	best  []int32
	have  bool
	nums  [][]int32 // numberings achieving best
	stack []int32   // per-depth minimal serializations
	cands []int32   // per-depth atoms achieving them
	atoms []IDAtom
	buf   []byte
}

// Canon returns the canonical serialization of atoms (variables
// 0..nv-1) and every numbering achieving it. seed, when non-nil,
// numbers some variables in advance (the body's numbering when the head
// is canonicalized after it); unseeded variables are numbered from one
// past the seed's largest index. The returned slices are fresh copies.
func (c *Canonizer) Canon(atoms []IDAtom, nv int32, seed []int32) ([]int32, [][]int32) {
	c.num = c.num[:0]
	c.next = 0
	for v := int32(0); v < nv; v++ {
		n := int32(-1)
		if seed != nil {
			n = seed[v]
		}
		c.num = append(c.num, n)
		if n >= c.next {
			c.next = n + 1
		}
	}
	c.used = c.used[:0]
	for range atoms {
		c.used = append(c.used, false)
	}
	c.acc, c.best, c.have, c.nums, c.atoms = c.acc[:0], c.best[:0], false, nil, atoms
	c.rec(0)
	return append([]int32(nil), c.best...), c.nums
}

// HeadSer is the least serialization of head over the given body
// numberings. Several optimal body orderings can induce different
// numberings, so minimizing over all of them keeps the rule key
// independent of input order.
func (c *Canonizer) HeadSer(head []IDAtom, nv int32, nums [][]int32) []int32 {
	var best []int32
	for i, n := range nums {
		s, _ := c.Canon(head, nv, n)
		if i == 0 || slices.Compare(s, best) < 0 {
			best = s
		}
	}
	return best
}

// RuleKey is the canonical key of the rule body → head (variables
// 0..nv-1): equal for two rules exactly when they agree up to variable
// renaming and atom order. The body is canonicalized first and the head
// under the body's numberings.
func (c *Canonizer) RuleKey(body, head []IDAtom, nv int32) string {
	bs, nums := c.Canon(body, nv, nil)
	return c.Key(bs, c.HeadSer(head, nv, nums))
}

// Key encodes serializations as a map key, each part prefixed with its
// length.
func (c *Canonizer) Key(parts ...[]int32) string {
	c.buf = c.buf[:0]
	for _, s := range parts {
		c.buf = appendInt32(c.buf, int32(len(s)))
		for _, v := range s {
			c.buf = appendInt32(c.buf, v)
		}
	}
	return string(c.buf)
}

func appendInt32(dst []byte, v int32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// serialize appends the serialization of a under the current numbering:
// the count of variables it would newly number, its relation, then its
// arguments with variables replaced by canonical indices (variables new
// to this atom get the indices they would receive) and non-variable
// terms kept as their negative ids. Preferring atoms that number few
// new variables keeps connected atoms together and collapses most ties,
// e.g. among the ACDom guards added by Definition 13.
func (c *Canonizer) serialize(dst []int32, a IDAtom) []int32 {
	head := len(dst)
	dst = append(dst, 0, a.Rel)
	fresh := int32(0)
	for i, t := range a.Args {
		switch {
		case t < 0:
			dst = append(dst, t)
		case c.num[t] >= 0:
			dst = append(dst, c.num[t])
		default:
			n := c.next + fresh
			for j := 0; j < i; j++ {
				if a.Args[j] == t {
					n = dst[head+2+j]
					break
				}
			}
			if n == c.next+fresh {
				fresh++
			}
			dst = append(dst, n)
		}
	}
	dst[head] = fresh
	return dst
}

func (c *Canonizer) rec(depth int) {
	if depth == len(c.atoms) {
		switch d := slices.Compare(c.acc, c.best); {
		case !c.have || d < 0:
			c.best = append(c.best[:0], c.acc...)
			c.nums = [][]int32{append([]int32(nil), c.num...)}
			c.have = true
		case d == 0:
			c.nums = append(c.nums, append([]int32(nil), c.num...))
		}
		return
	}
	// Serialize every unused atom; keep the minimal serialization at
	// stack[base:] and the atoms achieving it in cands[cbase:]. Deeper
	// levels only append past both, so the slices stay valid.
	base, cbase := len(c.stack), len(c.cands)
	for i, a := range c.atoms {
		if c.used[i] {
			continue
		}
		start := len(c.stack)
		c.stack = c.serialize(c.stack, a)
		ser := c.stack[start:]
		d := -1
		if len(c.cands) > cbase {
			d = slices.Compare(ser, c.stack[base:start])
		}
		switch {
		case d < 0:
			copy(c.stack[base:], ser)
			c.stack = c.stack[:base+len(ser)]
			c.cands = append(c.cands[:cbase], int32(i))
		case d == 0:
			c.stack = c.stack[:start]
			c.cands = append(c.cands, int32(i))
		default:
			c.stack = c.stack[:start]
		}
	}
	minSer := c.stack[base:]
	// Prune when the partial serialization already exceeds the best one.
	// Every complete serialization has the same length, so comparing
	// prefixes of equal length decides it.
	if c.have {
		n := len(c.acc)
		d := slices.Compare(c.acc, c.best[:n])
		if d == 0 {
			d = slices.Compare(minSer, c.best[n:n+len(minSer)])
		}
		if d > 0 {
			c.stack, c.cands = c.stack[:base], c.cands[:cbase]
			return
		}
	}
	accLen := len(c.acc)
	c.acc = append(c.acc, minSer...)
	for _, i := range c.cands[cbase:] {
		a := c.atoms[i]
		mark := c.next
		for _, t := range a.Args {
			if t >= 0 && c.num[t] < 0 {
				c.num[t] = c.next
				c.next++
			}
		}
		c.used[i] = true
		c.rec(depth + 1)
		c.used[i] = false
		for _, t := range a.Args {
			if t >= 0 && c.num[t] >= mark {
				c.num[t] = -1
			}
		}
		c.next = mark
	}
	c.acc = c.acc[:accLen]
	c.stack, c.cands = c.stack[:base], c.cands[:cbase]
}

// canonRel identifies a relation occurrence for the term-space adapters:
// a negated body literal's relation is distinct from the positive one.
type canonRel struct {
	RelKey
	neg byte // 1 for a negated body literal
}

func relOf(a Atom, neg bool) canonRel {
	r := canonRel{RelKey: a.Key()}
	if neg {
		r.neg = 1
	}
	return r
}

func compareCanonRel(a, b canonRel) int {
	return cmp.Or(cmp.Compare(a.Name, b.Name), cmp.Compare(a.AnnArity, b.AnnArity),
		cmp.Compare(a.Arity, b.Arity), cmp.Compare(a.neg, b.neg))
}

func compareTerm(a, b Term) int {
	return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Name, b.Name))
}

// idSpace translates term-space literals into the canonizer's id-space.
// Relations and non-variable terms are numbered by their rank in sorted
// order, so isomorphic inputs get equal ids; variables are numbered by
// first occurrence, which the canonizer does not depend on.
type idSpace struct {
	rels  []canonRel
	terms []Term
	vars  []Term // variables by id
}

// newIDSpace numbers the relations and non-variable terms of the
// literals and returns the literals translated; neg, when non-nil, marks
// the negated ones.
func newIDSpace(atoms []Atom, neg []bool) (*idSpace, []IDAtom) {
	s := &idSpace{}
	rels := make([]canonRel, len(atoms))
	for i, a := range atoms {
		rels[i] = relOf(a, neg != nil && neg[i])
		for _, ts := range [2][]Term{a.Annotation, a.Args} {
			for _, t := range ts {
				if !t.IsVar() {
					s.terms = append(s.terms, t)
				}
			}
		}
	}
	s.rels = slices.Clone(rels)
	slices.SortFunc(s.rels, compareCanonRel)
	s.rels = slices.Compact(s.rels)
	slices.SortFunc(s.terms, compareTerm)
	s.terms = slices.Compact(s.terms)
	ids := make([]IDAtom, len(atoms))
	for i, a := range atoms {
		rel, _ := slices.BinarySearchFunc(s.rels, rels[i], compareCanonRel)
		ids[i] = IDAtom{Rel: int32(rel), Args: make([]int32, 0, len(a.Annotation)+len(a.Args))}
		for _, ts := range [2][]Term{a.Annotation, a.Args} {
			for _, t := range ts {
				ids[i].Args = append(ids[i].Args, s.term(t))
			}
		}
	}
	return s, ids
}

// term is the id of t: its negated rank among the non-variable terms,
// or its variable number, assigned by first occurrence.
func (s *idSpace) term(t Term) int32 {
	if !t.IsVar() {
		id, _ := slices.BinarySearchFunc(s.terms, t, compareTerm)
		return -int32(id) - 1
	}
	id := slices.Index(s.vars, t)
	if id < 0 {
		id = len(s.vars)
		s.vars = append(s.vars, t)
	}
	return int32(id)
}

// key encodes the relation and term tables, names length-prefixed, then
// the canonical serialization, so the whole key is injective.
func (s *idSpace) key(ser string) string {
	var b []byte
	b = appendInt32(b, int32(len(s.rels)))
	for _, r := range s.rels {
		b = appendName(b, r.Name)
		b = appendInt32(b, int32(r.AnnArity))
		b = append(appendInt32(b, int32(r.Arity)), r.neg)
	}
	b = appendInt32(b, int32(len(s.terms)))
	for _, t := range s.terms {
		b = append(b, byte(t.Kind))
		b = appendName(b, t.Name)
	}
	return string(b) + ser
}

func appendName(dst []byte, name string) []byte {
	return append(appendInt32(dst, int32(len(name))), name...)
}

// CanonicalKey returns a string that is identical for two rules exactly
// when they are equal up to renaming of variables and reordering of body
// literals and head atoms. It is used to deduplicate rules during the
// expansion of Definition 12, whose termination argument counts rules up
// to variable renaming.
func CanonicalKey(r *Rule) string {
	neg := make([]bool, len(r.Body)+len(r.Head))
	for i, l := range r.Body {
		neg[i] = l.Negated
	}
	s, ids := newIDSpace(r.AllAtoms(), neg)
	var c Canonizer
	return s.key(c.RuleKey(ids[:len(r.Body)], ids[len(r.Body):], int32(len(s.vars))))
}
