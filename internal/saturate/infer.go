package saturate

import "slices"

// step applies every inference rule of Figure 3 with pooled rule i as
// one premise.
func (p *pool) step(i int32) error {
	if p.rules[i].existential() {
		return p.inferExistential(i)
	}
	return p.inferDatalog(i)
}

// gather lists, in pool order, the rules an index files under any
// relation of atoms. The index lists are read as they stand now, so
// rules added while the caller works are left to their own items.
func (p *pool) gather(atoms []atom, index [][]int32) []int32 {
	p.epoch++
	if len(p.mark) < len(p.rules) {
		p.mark = append(p.mark, make([]uint32, len(p.rules)-len(p.mark))...)
	}
	var out []int32
	for _, a := range atoms {
		for _, i := range index[a.Rel] {
			if p.mark[i] != p.epoch {
				p.mark[i] = p.epoch
				out = append(out, i)
			}
		}
	}
	slices.Sort(out)
	return out
}

// inferDatalog composes a new Datalog rule, as right premise, with every
// existential rule whose head mentions one of its body relations. Only
// the processed prefix of each head is used: a queued suffix meets this
// rule when its own item runs.
func (p *pool) inferDatalog(di int32) error {
	d := p.rules[di]
	for _, ei := range p.gather(d.body, p.exByHeadRel) {
		if end := p.rules[ei].processedEnd(); end > 0 {
			if err := p.compose(ei, d, 0, end); err != nil {
				return err
			}
		}
	}
	return nil
}

// inferExistential processes the head suffix of existential rule ei
// that was added since its last item: head projections of the new
// atoms, variable specializations of the whole rule, and compositions
// whose γ2 match touches a new atom (semi-naive saturation).
func (p *pool) inferExistential(ei int32) error {
	r := p.rules[ei] // owned: only extend and insert queue a rule
	lo, hi := int(r.pend), len(r.head)
	r.pend = -1
	// Figure 3, first rule: head projection to atoms without existential
	// variables.
	for _, a := range r.head[lo:hi] {
		if !hasEvar(a, r.nb) {
			if err := p.project(r, a); err != nil {
				return err
			}
		}
	}
	// Figure 3, third rule: variable specializations g(α) → g(β). Merging
	// one pair of body variables at a time generates, under closure, every
	// endomorphism image up to renaming. Specializing Datalog rules is
	// subsumed by the homomorphism search of the composition rule, so only
	// existential rules are specialized.
	if err := p.specialize(ei); err != nil {
		return err
	}
	// Figure 3, second rule: composition with a Datalog rule whose body
	// mentions the relation of a new head atom.
	for _, di := range p.gather(r.head[lo:hi], p.dlByBodyRel) {
		if err := p.compose(ei, p.rules[di], lo, hi); err != nil {
			return err
		}
	}
	return nil
}

func hasEvar(a atom, nb int32) bool {
	for _, t := range a.Args {
		if t >= nb {
			return true
		}
	}
	return false
}

// project adds the Datalog rule α → a. Its key reuses the cached body
// serialization and automorphisms instead of re-canonicalizing α.
func (p *pool) project(r *rule, a atom) error {
	if err := p.count(); err != nil {
		return err
	}
	head := []atom{a}
	k := p.cz.Key(r.bodySer, p.cz.HeadSer(head, r.nb, r.autos))
	if _, ok := p.byKey[k]; ok {
		return nil
	}
	i, err := p.insert(&rule{body: r.body, head: head, nb: r.nb, nv: r.nb, pend: -1})
	if err == nil {
		p.byKey[k] = i
	}
	return err
}

// specialize derives g(α) → g(β) for every merge g of two body
// variables. The first pass canonicalizes each g(α) and caches its
// pooled target; later passes (the head grew) fold g(β) straight in.
func (p *pool) specialize(ei int32) error {
	r := p.rules[ei]
	cached := r.specs != nil
	var specs []spec
	if !cached && r.nb > 1 {
		specs = make([]spec, 0, r.nb*(r.nb-1))
	}
	k := 0
	for x := int32(0); x < r.nb; x++ {
		for y := int32(0); y < r.nb; y++ {
			if x == y {
				continue
			}
			g := func(atoms []atom) []atom {
				out := make([]atom, len(atoms))
				for i, a := range atoms {
					args := slices.Clone(a.Args)
					for j, t := range args {
						if t == x {
							args[j] = y
						}
					}
					out[i] = atom{Rel: a.Rel, Args: args}
				}
				return out
			}
			head := p.rules[ei].head
			if cached {
				s := r.specs[k]
				k++
				if err := p.count(); err != nil {
					return err
				}
				ren := make([]int32, p.rules[ei].nv)
				for v := range ren {
					ren[v] = -1
				}
				copy(ren, s.ren)
				p.fold(s.target, g(head), ren)
				continue
			}
			ti, num, err := p.add(g(r.body), g(head), p.rules[ei].nv, "")
			if err != nil {
				return err
			}
			specs = append(specs, spec{target: ti, ren: num[:r.nb]})
		}
	}
	if !cached {
		p.rules[ei].specs = specs
	}
	return nil
}

// compose applies the second inference rule of Figure 3 with left
// premise α → β (existential rule ei) and right Datalog premise
// γ1 ∧ γ2 → δ: for every homomorphism h from a subset γ2 of the right
// body into β whose completion maps the γ1 variables into vars(α), it
// derives α ∧ h(γ1) → β ∧ h(δ). Only head atoms [0, hi) are match
// targets, and the γ2 match must use one in [lo, hi).
//
// The right rule needs no standardizing apart: its variables index a
// substitution of their own, whose values are left terms.
func (p *pool) compose(ei int32, d *rule, lo, hi int) error {
	p.stats.ComposePairs++
	beta := p.rules[ei].head[:hi:hi]
	nb := p.rules[ei].nb
	s := make([]int32, d.nv)
	for v := range s {
		s[v] = free
	}
	// inG1 counts the γ1 atoms each right variable occurs in: such a
	// variable must map into vars(α), so binding it to an existential
	// variable prunes the branch (as does placing an atom in γ1 whose
	// variables are already bound to one).
	inG1 := make([]int32, d.nv)
	g1 := make([]bool, len(d.body))
	var trail []int32
	var assign func(i int, touched bool) error
	assign = func(i int, touched bool) error {
		if err := p.searchNode(); err != nil {
			return err
		}
		if i == len(d.body) {
			if !touched {
				return nil
			}
			return p.emit(ei, d, s, g1)
		}
		a := d.body[i]
		// Option 1: a ∈ γ2, matched against a head atom of the left rule.
		for j, b := range beta {
			if b.Rel != a.Rel {
				continue
			}
			mark := len(trail)
			ok := true
			for k, t := range a.Args {
				switch {
				case t < 0:
					ok = t == b.Args[k]
				case s[t] != free:
					ok = s[t] == b.Args[k]
				default:
					s[t] = b.Args[k]
					trail = append(trail, t)
					ok = s[t] < nb || inG1[t] == 0
				}
				if !ok {
					break
				}
			}
			if ok {
				if err := assign(i+1, touched || j >= lo); err != nil {
					return err
				}
			}
			for _, v := range trail[mark:] {
				s[v] = free
			}
			trail = trail[:mark]
		}
		// Option 2: a ∈ γ1; its variables must end up in vars(α).
		for _, t := range a.Args {
			if t >= 0 && s[t] != free && s[t] >= nb {
				return nil
			}
		}
		g1[i] = true
		for _, t := range a.Args {
			if t >= 0 {
				inG1[t]++
			}
		}
		err := assign(i+1, touched)
		for _, t := range a.Args {
			if t >= 0 {
				inG1[t]--
			}
		}
		g1[i] = false
		return err
	}
	return assign(0, false)
}

// emit finishes a composition. The γ2 match must bind some variable to
// an existential variable of the left rule, otherwise bottom-up
// evaluation of dat(Σ) replays the composition itself. Leftover γ1
// variables are mapped into vars(α) in every possible way. A result
// without new body atoms extends the left rule's head in place; one
// with new body atoms is added as a rule of its own.
func (p *pool) emit(ei int32, d *rule, s []int32, g1 []bool) error {
	nb := p.rules[ei].nb
	evar := false
	var unbound []int32
	for i, a := range d.body {
		for _, t := range a.Args {
			switch {
			case t < 0:
			case !g1[i]:
				evar = evar || s[t] >= nb
			case s[t] == free:
				if !slices.Contains(unbound, t) {
					unbound = append(unbound, t)
				}
			case s[t] >= nb:
				return nil // vars(h(γ1)) ⊄ vars(α)
			}
		}
	}
	if !evar || (len(unbound) > 0 && nb == 0) {
		return nil
	}
	apply := func(a atom) atom {
		args := make([]int32, len(a.Args))
		for k, t := range a.Args {
			if t >= 0 {
				t = s[t]
			}
			args[k] = t
		}
		return atom{Rel: a.Rel, Args: args}
	}
	var rec func(u int) error
	rec = func(u int) error {
		if u < len(unbound) {
			for v := int32(0); v < nb; v++ {
				s[unbound[u]] = v
				if err := rec(u + 1); err != nil {
					s[unbound[u]] = free
					return err
				}
			}
			s[unbound[u]] = free
			return nil
		}
		left := p.rules[ei]
		var extra, headAdd []atom
		for i, a := range d.body {
			if m := apply(a); g1[i] && !containsAtom(left.body, m) && !containsAtom(extra, m) {
				extra = append(extra, m)
			}
		}
		for _, a := range d.head {
			if m := apply(a); !containsAtom(left.head, m) && !containsAtom(headAdd, m) {
				headAdd = append(headAdd, m)
			}
		}
		switch {
		case len(extra) == 0 && len(headAdd) == 0:
			return nil // nothing new
		case len(extra) == 0:
			if err := p.count(); err != nil {
				return err
			}
			p.extend(ei, headAdd)
			return nil
		}
		body := append(slices.Clip(left.body), extra...)
		head := append(slices.Clip(left.head), headAdd...)
		_, _, err := p.add(body, head, left.nv, "")
		return err
	}
	return rec(0)
}
