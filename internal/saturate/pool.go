package saturate

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"guardedrules/internal/budget"
	"guardedrules/internal/core"
)

// The saturation runs in id-space over core.IDAtom. A term is an int32:
// a value v >= 0 is the rule-local variable v; a value v < 0 is the
// interned constant (or null) -v-1 of the pool's term table. Relations
// are interned the same way, keyed by name, annotation arity and arity;
// an atom's args hold its annotation terms first, then its arguments, so
// homomorphisms treat both alike.
type atom = core.IDAtom

// free marks an unbound variable in a substitution; interned terms are
// small negative numbers, so it never collides with a value.
const free = math.MinInt32

func sameAtom(a, b atom) bool {
	return a.Rel == b.Rel && slices.Equal(a.Args, b.Args)
}

func containsAtom(atoms []atom, a atom) bool {
	for _, b := range atoms {
		if sameAtom(a, b) {
			return true
		}
	}
	return false
}

// rule is a pooled rule. Its body variables are 0..nb-1 and its
// existential (head-only) variables nb..nv-1, so a Datalog rule has
// nv == nb. Existential rules are numbered canonically by body, which
// makes two pooled bodies of one isomorphism class literally equal: a
// rule folding into the pooled rule of its body needs no isomorphism
// search.
type rule struct {
	body, head []atom
	nb, nv     int32
	label      string
	// out caches the core form of a Datalog rule, converted once by the
	// pool that derived it and shared with every pool resumed from it.
	out *core.Rule
	// owner is the pool that may mutate the rule. A resumed pool shares
	// its base's rules and clones one before growing its head.
	owner *pool

	// Existential rules only.
	// pend is the start of the head suffix awaiting inference, or -1
	// when no work item is queued for the rule.
	pend int32
	// bodySer is the canonical serialization of the body; autos lists
	// every canonical numbering of the (already canonical) body, i.e.
	// its automorphisms, for keying head projections without
	// re-canonicalizing the body.
	bodySer []int32
	autos   [][]int32
	// specs caches the pooled targets of the rule's variable
	// specializations once they have been computed (the body never
	// changes, so neither do the targets).
	specs []spec
}

// spec is one cached variable specialization g(α) → g(β) of an
// existential rule: target is the pooled rule of g(α), and ren maps the
// rule's body variables onto target's.
type spec struct {
	target int32
	ren    []int32
}

func (r *rule) existential() bool { return r.nv > r.nb }

// processedEnd is the length of the head prefix whose inferences have
// run: a Datalog rule composing against r only needs that prefix, since
// the rule's queued item will meet the suffix.
func (r *rule) processedEnd() int {
	if r.pend >= 0 {
		return int(r.pend)
	}
	return len(r.head)
}

type relInfo struct {
	name     string
	annArity int
}

// pool is the worklist-driven closure state. Datalog rules are
// deduplicated up to renaming; existential rules are kept one per
// canonical body, with heads merged monotonically. Conjoining two
// existential conclusions of one body is sound when their existential
// variables are kept apart, so a folded rule contributes each of its
// evar-connected head components under fresh variables, unless a
// homomorphism maps the component into the pooled head already. A
// composition that adds no body atom extends its left premise's head in
// place, keeping the linkage to that head's existential variables.
// This keeps the closure polynomial in the derivable head atoms per body
// instead of exponential.
type pool struct {
	rels    []relInfo
	relIDs  map[core.RelKey]int32
	terms   []core.Term
	termIDs map[core.Term]int32

	rules  []*rule
	byKey  map[string]int32 // Datalog rules by canonical key
	byBody map[string]int32 // existential rules by canonical body
	inputs map[string]bool  // canonical keys of the input rules
	// Relation indexes: Datalog rules by body relation, existential
	// rules by head relation. A composition needs a body atom of its
	// Datalog premise to match a head atom of its existential one.
	dlByBodyRel [][]int32
	exByHeadRel [][]int32
	work        []int32

	stats    Stats
	maxSize  int
	maxInfer int
	tk       *budget.Tracker
	cz       core.Canonizer
	mark     []uint32
	epoch    uint32
	nodes    int // homomorphism-search nodes visited by compositions
}

func newPool() *pool {
	return &pool{
		relIDs:  map[core.RelKey]int32{},
		termIDs: map[core.Term]int32{},
		byKey:   map[string]int32{},
		byBody:  map[string]int32{},
		inputs:  map[string]bool{},
	}
}

// resume returns a pool that starts from the frozen closure of base.
// The base is never written: its maps are copied, its slices clipped so
// appends reallocate, and its rules are cloned before they change.
func (base *pool) resume() *pool {
	clip := func(xs [][]int32) [][]int32 {
		out := make([][]int32, len(xs))
		for i, x := range xs {
			out[i] = slices.Clip(x)
		}
		return out
	}
	return &pool{
		rels:        slices.Clip(base.rels),
		relIDs:      copyMap(base.relIDs),
		terms:       slices.Clip(base.terms),
		termIDs:     copyMap(base.termIDs),
		rules:       slices.Clip(base.rules),
		byKey:       copyMap(base.byKey),
		byBody:      copyMap(base.byBody),
		inputs:      copyMap(base.inputs),
		dlByBodyRel: clip(base.dlByBodyRel),
		exByHeadRel: clip(base.exByHeadRel),
	}
}

// restart empties the closure but keeps the intern tables, for a resume
// whose input does not contain the base's.
func (p *pool) restart() {
	p.rules = nil
	p.byKey = map[string]int32{}
	p.byBody = map[string]int32{}
	p.inputs = map[string]bool{}
	p.dlByBodyRel = make([][]int32, len(p.rels))
	p.exByHeadRel = make([][]int32, len(p.rels))
}

func copyMap[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// own returns rule i writable by p, cloning a shared one first.
func (p *pool) own(i int32) *rule {
	r := p.rules[i]
	if r.owner == p {
		return r
	}
	c := *r
	c.head = slices.Clip(r.head)
	c.owner = p
	p.rules[i] = &c
	return &c
}

func (p *pool) relID(rk core.RelKey) int32 {
	if id, ok := p.relIDs[rk]; ok {
		return id
	}
	id := int32(len(p.rels))
	p.relIDs[rk] = id
	p.rels = append(p.rels, relInfo{name: rk.Name, annArity: rk.AnnArity})
	p.dlByBodyRel = append(p.dlByBodyRel, nil)
	p.exByHeadRel = append(p.exByHeadRel, nil)
	return id
}

func (p *pool) termID(t core.Term) int32 {
	if id, ok := p.termIDs[t]; ok {
		return id
	}
	id := -int32(len(p.terms)) - 1
	p.termIDs[t] = id
	p.terms = append(p.terms, t)
	return id
}

// fromCore converts a positive core rule into id-space, numbering its
// variables by first occurrence.
func (p *pool) fromCore(r *core.Rule) (body, head []atom, nv int32) {
	vars := map[core.Term]int32{}
	conv := func(a core.Atom) atom {
		out := atom{Rel: p.relID(a.Key()), Args: make([]int32, 0, len(a.Annotation)+len(a.Args))}
		for _, ts := range [2][]core.Term{a.Annotation, a.Args} {
			for _, t := range ts {
				if !t.IsVar() {
					out.Args = append(out.Args, p.termID(t))
					continue
				}
				id, ok := vars[t]
				if !ok {
					id = int32(len(vars))
					vars[t] = id
				}
				out.Args = append(out.Args, id)
			}
		}
		return out
	}
	for _, l := range r.Body {
		body = append(body, conv(l.Atom))
	}
	for _, h := range r.Head {
		head = append(head, conv(h))
	}
	return body, head, int32(len(vars))
}

func varName(v int32) core.Term { return core.Var("X" + strconv.Itoa(int(v))) }

// toCore converts a pooled rule back, naming variable v "X<v>".
func (p *pool) toCore(r *rule) *core.Rule {
	conv := func(a atom) core.Atom {
		info := p.rels[a.Rel]
		terms := make([]core.Term, len(a.Args))
		for i, t := range a.Args {
			if t < 0 {
				terms[i] = p.terms[-t-1]
			} else {
				terms[i] = varName(t)
			}
		}
		out := core.Atom{Relation: info.name, Args: terms[info.annArity:]}
		if info.annArity > 0 {
			out.Annotation = terms[:info.annArity]
		}
		return out
	}
	out := &core.Rule{Label: r.label}
	for _, a := range r.body {
		out.Body = append(out.Body, core.Pos(conv(a)))
	}
	for _, a := range r.head {
		out.Head = append(out.Head, conv(a))
	}
	for v := r.nb; v < r.nv; v++ {
		out.Exist = append(out.Exist, varName(v))
	}
	return out
}

// dedupAtoms drops repeated atoms, keeping first occurrences in order.
func dedupAtoms(atoms []atom) []atom {
	out := atoms[:0:0]
	for _, a := range atoms {
		if !containsAtom(out, a) {
			out = append(out, a)
		}
	}
	return out
}

// count charges one inference against the step budget.
func (p *pool) count() error {
	p.stats.Inferences++
	p.tk.AddSteps(1)
	return p.overBudget()
}

// searchNode charges one node of a composition's homomorphism search
// against the step budget. Searches can be exponential in the Datalog
// premise's body, so every pollInterval nodes they also observe
// cancellation, which otherwise is checked between worklist items.
func (p *pool) searchNode() error {
	p.nodes++
	if p.nodes%pollInterval != 0 {
		return nil
	}
	p.tk.AddSteps(pollInterval)
	if p.tk.Canceled() {
		return fmt.Errorf("saturate: %w", p.tk.Check())
	}
	return p.overBudget()
}

const pollInterval = 1024

func (p *pool) overBudget() error {
	if p.maxInfer > 0 && p.stats.Inferences+p.nodes > p.maxInfer {
		return fmt.Errorf("saturate: inference budget exceeded: %w",
			p.tk.Exhausted(budget.ErrStepLimit))
	}
	return nil
}

// add derives a rule (variables 0..nv-1, any numbering) into the pool:
// a new Datalog rule is inserted unless a renaming of it is pooled; an
// existential rule becomes the pooled rule of its canonical body or is
// folded into it. It returns the index of the absorbing rule and the
// renaming of the derived rule's body variables onto it.
func (p *pool) add(body, head []atom, nv int32, label string) (int32, []int32, error) {
	if err := p.count(); err != nil {
		return -1, nil, err
	}
	body, head = dedupAtoms(body), dedupAtoms(head)
	inBody := make([]bool, nv)
	for _, a := range body {
		for _, t := range a.Args {
			if t >= 0 {
				inBody[t] = true
			}
		}
	}
	exist := false
	for _, a := range head {
		for _, t := range a.Args {
			if t >= 0 && !inBody[t] {
				exist = true
			}
		}
	}
	bs, nums := p.cz.Canon(body, nv, nil)
	if !exist {
		k := p.cz.Key(bs, p.cz.HeadSer(head, nv, nums))
		if i, ok := p.byKey[k]; ok {
			return i, nil, nil
		}
		r := renumber(body, head, nv, nums[0])
		r.label = label
		i, err := p.insert(r)
		if err == nil {
			p.byKey[k] = i
		}
		return i, nums[0], err
	}
	k := p.cz.Key(bs)
	if i, ok := p.byBody[k]; ok {
		p.fold(i, head, nums[0])
		return i, nums[0], nil
	}
	r := renumber(body, head, nv, nums[0])
	r.label = label
	r.bodySer = bs
	inv := make([]int32, r.nb)
	for v, n := range nums[0] {
		if n >= 0 {
			inv[n] = int32(v)
		}
	}
	for _, n := range nums {
		auto := make([]int32, r.nb)
		for j := range auto {
			auto[j] = n[inv[j]]
		}
		r.autos = append(r.autos, auto)
	}
	i, err := p.insert(r)
	if err == nil {
		p.byBody[k] = i
	}
	return i, nums[0], err
}

// renumber builds a pooled rule from a derived one: body variables take
// their canonical numbers, head-only variables follow in order of first
// occurrence.
func renumber(body, head []atom, nv int32, num []int32) *rule {
	ren := append([]int32(nil), num...)
	nb := int32(0)
	for _, n := range ren {
		if n >= nb {
			nb = n + 1
		}
	}
	next := nb
	mapAtoms := func(atoms []atom) []atom {
		out := make([]atom, len(atoms))
		for i, a := range atoms {
			args := make([]int32, len(a.Args))
			for j, t := range a.Args {
				if t >= 0 {
					if ren[t] < 0 {
						ren[t] = next
						next++
					}
					t = ren[t]
				}
				args[j] = t
			}
			out[i] = atom{Rel: a.Rel, Args: args}
		}
		return out
	}
	r := &rule{body: mapAtoms(body), nb: nb, pend: -1}
	r.head = mapAtoms(head)
	r.nv = next
	return r
}

// insert is the one capped insertion point of the pool.
func (p *pool) insert(r *rule) (int32, error) {
	if len(p.rules) >= p.maxSize {
		return -1, fmt.Errorf("saturate: closure exceeded %d rules: %w",
			p.maxSize, p.tk.Exhausted(budget.ErrRuleLimit))
	}
	i := int32(len(p.rules))
	if r.label == "" {
		r.label = fmt.Sprintf("xi%d", i)
	}
	r.owner = p
	p.rules = append(p.rules, r)
	p.tk.AddRules(1)
	if r.existential() {
		for j, a := range r.head {
			if !hasRel(r.head[:j], a.Rel) {
				p.exByHeadRel[a.Rel] = append(p.exByHeadRel[a.Rel], i)
			}
		}
		r.pend = 0
	} else {
		for j, a := range r.body {
			if !hasRel(r.body[:j], a.Rel) {
				p.dlByBodyRel[a.Rel] = append(p.dlByBodyRel[a.Rel], i)
			}
		}
	}
	p.work = append(p.work, i)
	return i, nil
}

func hasRel(atoms []atom, rel int32) bool {
	for _, a := range atoms {
		if a.Rel == rel {
			return true
		}
	}
	return false
}

// extend appends atoms (already in the rule's variable space) to the
// head of existential rule i, indexing new head relations and queueing
// the rule for the new suffix.
func (p *pool) extend(i int32, atoms []atom) {
	r := p.own(i)
	old := len(r.head)
	for _, a := range atoms {
		if containsAtom(r.head, a) {
			continue
		}
		if !hasRel(r.head, a.Rel) {
			p.exByHeadRel[a.Rel] = append(p.exByHeadRel[a.Rel], i)
		}
		r.head = append(r.head, a)
	}
	if len(r.head) > old && r.pend < 0 {
		r.pend = int32(old)
		p.work = append(p.work, i)
	}
}

// fold merges the head of a derived existential rule into pooled rule i
// of the same canonical body; num renames the derived body onto i's.
// Each evar-connected component of the derived head is added under fresh
// existential variables unless it already maps homomorphically into the
// pooled head (fixing body variables), in which case it is implied.
func (p *pool) fold(i int32, head []atom, num []int32) {
	ren := make([]int32, len(num))
	for v, n := range num {
		ren[v] = n
		if n < 0 {
			ren[v] = free
		}
	}
	comp := components(head, ren)
	var add []atom
	for c := int32(0); c < int32(len(head)); c++ {
		var atoms []atom
		for j, a := range head {
			if comp[j] == c {
				atoms = append(atoms, a)
			}
		}
		if len(atoms) == 0 {
			continue
		}
		target := p.rules[i]
		cur := append(slices.Clip(target.head), add...)
		if homInto(atoms, ren, cur) {
			continue
		}
		next := target.nv
		for _, a := range atoms {
			m := atom{Rel: a.Rel, Args: make([]int32, len(a.Args))}
			for k, t := range a.Args {
				if t >= 0 && ren[t] == free {
					ren[t] = next
					next++
				}
				if t >= 0 {
					t = ren[t]
				}
				m.Args[k] = t
			}
			add = append(add, m)
		}
		p.own(i).nv = next
	}
	if len(add) > 0 {
		p.extend(i, add)
	}
}

// components labels each head atom with its evar-connected component
// (the index of the component's first atom): atoms sharing an
// existential variable (ren[v] == free) belong together.
func components(head []atom, ren []int32) []int32 {
	comp := make([]int32, len(head))
	for j := range comp {
		comp[j] = int32(j)
	}
	find := func(j int32) int32 {
		for comp[j] != j {
			j = comp[j]
		}
		return j
	}
	first := map[int32]int32{}
	for j, a := range head {
		for _, t := range a.Args {
			if t < 0 || ren[t] != free {
				continue
			}
			if f, ok := first[t]; ok {
				a, b := find(f), find(int32(j))
				if a != b {
					if a < b {
						comp[b] = a
					} else {
						comp[a] = b
					}
				}
			} else {
				first[t] = int32(j)
			}
		}
	}
	for j := range comp {
		comp[j] = find(int32(j))
	}
	return comp
}

// homInto reports whether a homomorphism maps atoms into target, with
// variables v where ren[v] != free fixed to ren[v] and the others free.
// ren is restored before returning.
func homInto(atoms []atom, ren []int32, target []atom) bool {
	var trail []int32
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(atoms) {
			return true
		}
		a := atoms[i]
		for _, b := range target {
			if b.Rel != a.Rel {
				continue
			}
			mark := len(trail)
			ok := true
			for k, t := range a.Args {
				switch {
				case t < 0:
					ok = t == b.Args[k]
				case ren[t] != free:
					ok = ren[t] == b.Args[k]
				default:
					ren[t] = b.Args[k]
					trail = append(trail, t)
				}
				if !ok {
					break
				}
			}
			if ok && rec(i+1) {
				for _, v := range trail[mark:] {
					ren[v] = free
				}
				trail = trail[:mark]
				return true
			}
			for _, v := range trail[mark:] {
				ren[v] = free
			}
			trail = trail[:mark]
		}
		return false
	}
	return rec(0)
}
