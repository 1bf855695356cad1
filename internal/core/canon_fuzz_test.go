package core

import "testing"

// fuzzRels and fuzzTerms are the vocabulary decodeRule draws from. The
// names imitate the syntax of printed atoms and keys, so a key that
// spelled names out without delimiting them would collide.
var (
	fuzzRels = []RelKey{
		{Name: "P", Arity: 1}, {Name: "P", Arity: 2}, {Name: "R", Arity: 2},
		{Name: "R,", Arity: 1}, {Name: "?0", Arity: 1}, {Name: "S"},
		{Name: "R", AnnArity: 1, Arity: 1}, {Name: "a\x00b", Arity: 1},
	}
	fuzzTerms = []Term{
		Var("X0"), Var("X1"), Var("X2"), Var("X3"),
		Const("?0"), Const("a, b"), Const(" & "), NewNull("?0"),
	}
)

// decodeRule reads a rule of at most 4 atoms from data: a body of 0–3
// literals, a head filling the rest, each atom a relation byte (its top
// bit negates a body literal) followed by one byte per term. Missing
// bytes read as zero.
func decodeRule(data []byte) *Rule {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	atom := func() (Atom, bool) {
		b := next()
		rk := fuzzRels[b%len(fuzzRels)]
		a := Atom{Relation: rk.Name}
		for i := 0; i < rk.AnnArity; i++ {
			a.Annotation = append(a.Annotation, fuzzTerms[next()%len(fuzzTerms)])
		}
		a.Args = []Term{}
		for i := 0; i < rk.Arity; i++ {
			a.Args = append(a.Args, fuzzTerms[next()%len(fuzzTerms)])
		}
		return a, b&0x80 != 0
	}
	nb := next() % 4
	nh := 1 + next()%(4-nb)
	r := &Rule{}
	for i := 0; i < nb; i++ {
		a, neg := atom()
		r.Body = append(r.Body, Literal{Atom: a, Negated: neg})
	}
	for i := 0; i < nh; i++ {
		a, _ := atom()
		r.Head = append(r.Head, a)
	}
	return r
}

// isomorphic is the brute-force oracle: some permutation of b's body
// literals and of its head atoms lines b up with a under a bijection of
// variables.
func isomorphic(a, b *Rule) bool {
	if len(a.Body) != len(b.Body) || len(a.Head) != len(b.Head) {
		return false
	}
	la := make([]Literal, 0, len(a.Body)+len(a.Head))
	la = append(la, a.Body...)
	for _, h := range a.Head {
		la = append(la, Pos(h))
	}
	var found bool
	permute(len(b.Body), func(bp []int) {
		permute(len(b.Head), func(hp []int) {
			if found {
				return
			}
			lb := make([]Literal, 0, len(la))
			for _, i := range bp {
				lb = append(lb, b.Body[i])
			}
			for _, i := range hp {
				lb = append(lb, Pos(b.Head[i]))
			}
			found = alignLiterals(la, lb)
		})
	})
	return found
}

// alignLiterals reports whether a bijection of variables maps la onto lb
// position by position, fixing every other term.
func alignLiterals(la, lb []Literal) bool {
	fwd, back := map[Term]Term{}, map[Term]Term{}
	match := func(x, y []Term) bool {
		if len(x) != len(y) {
			return false
		}
		for i, s := range x {
			t := y[i]
			if s.IsVar() != t.IsVar() {
				return false
			}
			if !s.IsVar() {
				if s != t {
					return false
				}
				continue
			}
			if m, ok := fwd[s]; ok && m != t {
				return false
			}
			if m, ok := back[t]; ok && m != s {
				return false
			}
			fwd[s], back[t] = t, s
		}
		return true
	}
	for i, l := range la {
		x, y := l.Atom, lb[i].Atom
		if l.Negated != lb[i].Negated || x.Relation != y.Relation ||
			!match(x.Annotation, y.Annotation) || !match(x.Args, y.Args) {
			return false
		}
	}
	return true
}

// permute calls f with every permutation of 0..n-1.
func permute(n int, f func([]int)) {
	p := make([]int, n)
	used := make([]bool, n)
	var rec func(int)
	rec = func(i int) {
		if i == n {
			f(p)
			return
		}
		for j := 0; j < n; j++ {
			if !used[j] {
				used[j], p[i] = true, j
				rec(i + 1)
				used[j] = false
			}
		}
	}
	rec(0)
}

// FuzzCanonicalKey checks that two decoded rules share a canonical key
// exactly when they are isomorphic, and that a renamed copy with its
// literals reversed keeps the key.
func FuzzCanonicalKey(f *testing.F) {
	f.Add([]byte{2, 1, 0, 0, 2, 0, 0, 5}, []byte{2, 1, 0, 0, 2, 0, 4, 5})
	f.Add([]byte{1, 0, 1, 0, 5, 0}, []byte{1, 0, 1, 0, 4, 0, 0})
	f.Add([]byte{3, 0, 2, 0, 1, 2, 1, 0, 0x82, 1, 0, 5}, []byte{3, 0, 2, 1, 0, 2, 0, 1, 0x82, 0, 1, 5})
	f.Add([]byte{1, 2, 6, 1, 0, 0, 1, 1, 7, 6}, []byte{1, 2, 6, 0, 1, 0, 0, 0, 7, 6})
	f.Fuzz(func(t *testing.T, da, db []byte) {
		a, b := decodeRule(da), decodeRule(db)
		ka, kb := CanonicalKey(a), CanonicalKey(b)
		if iso := isomorphic(a, b); iso != (ka == kb) {
			t.Fatalf("isomorphic=%v but keys equal=%v:\n%v\n%v", iso, ka == kb, a, b)
		}
		c := &Rule{}
		ren := Subst{Var("X0"): Var("X3"), Var("X1"): Var("X0"), Var("X2"): Var("X1"), Var("X3"): Var("X2")}
		for i := len(a.Body) - 1; i >= 0; i-- {
			l := a.Body[i]
			c.Body = append(c.Body, Literal{Atom: ren.ApplyAtom(l.Atom), Negated: l.Negated})
		}
		for i := len(a.Head) - 1; i >= 0; i-- {
			c.Head = append(c.Head, ren.ApplyAtom(a.Head[i]))
		}
		if kc := CanonicalKey(c); kc != ka {
			t.Fatalf("renamed, reversed copy changed the key:\n%v\n%v", a, c)
		}
	})
}
