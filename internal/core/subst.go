package core

// Subst is a substitution mapping variables to terms. Terms not in the map
// are left unchanged.
type Subst map[Term]Term

// Apply returns the image of t under the substitution.
func (s Subst) Apply(t Term) Term {
	if out, ok := s[t]; ok {
		return out
	}
	return t
}

// ApplyAtom applies the substitution to arguments and annotation of a.
func (s Subst) ApplyAtom(a Atom) Atom {
	out := Atom{Relation: a.Relation}
	if a.Annotation != nil {
		out.Annotation = make([]Term, len(a.Annotation))
		for i, t := range a.Annotation {
			out.Annotation[i] = s.Apply(t)
		}
	}
	out.Args = make([]Term, len(a.Args))
	for i, t := range a.Args {
		out.Args[i] = s.Apply(t)
	}
	return out
}

// ApplyAtoms applies the substitution to a list of atoms.
func (s Subst) ApplyAtoms(atoms []Atom) []Atom {
	out := make([]Atom, len(atoms))
	for i, a := range atoms {
		out[i] = s.ApplyAtom(a)
	}
	return out
}

// ApplyRule applies the substitution to the whole rule, including
// existential variables (which are normally not in the domain of s).
func (s Subst) ApplyRule(r *Rule) *Rule {
	out := &Rule{Label: r.Label}
	out.Body = make([]Literal, len(r.Body))
	for i, l := range r.Body {
		out.Body[i] = Literal{Atom: s.ApplyAtom(l.Atom), Negated: l.Negated}
	}
	out.Head = s.ApplyAtoms(r.Head)
	out.Exist = make([]Term, len(r.Exist))
	for i, v := range r.Exist {
		out.Exist[i] = s.Apply(v)
	}
	return out
}

// Compose returns the substitution t ∘ s, i.e. (t∘s)(x) = t(s(x)), with
// domain dom(s) ∪ dom(t).
func (s Subst) Compose(t Subst) Subst {
	out := make(Subst, len(s)+len(t))
	for k, v := range s {
		out[k] = t.Apply(v)
	}
	for k, v := range t {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

// Clone returns a copy of the substitution.
func (s Subst) Clone() Subst {
	out := make(Subst, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}
