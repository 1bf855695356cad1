package kbcache

import (
	"slices"
	"strconv"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/kb"
	"guardedrules/internal/parser"
)

// Selector picks one query's answers out of a view's fixpoint: the facts
// of one relation that agree with a pattern atom's constants and
// repeated variables, each projected onto the answer positions. The
// same filter serves a view's answer lists and, over the one fact delta
// of each batch, its subscribers' answer deltas. A Selector is
// immutable.
type Selector struct {
	key     string // the query's identity: its CQKey, or "atom:" and the printed atom
	view    string // the key of the view it reads: BaseKey, or the CQ's plan key
	planKey string // the plan key its reads report
	q       kb.CQ  // plan views: the CQ whose plan the view runs

	rel    core.RelKey
	args   []core.Term // the pattern: constants and variables
	first  []int       // first[i] is the first position holding args[i]
	bound  int         // a position holding a constant, or -1
	proj   []int       // answer i is argument proj[i]
	ground bool        // answers are constant tuples: CQ answer variables range over ACDom
}

func newSelector(key, view, planKey string, q kb.CQ, pattern core.Atom, proj []int, ground bool) *Selector {
	s := &Selector{
		key: key, view: view, planKey: planKey, q: q,
		rel:  core.RelKey{Name: pattern.Relation, Arity: len(pattern.Args)},
		args: pattern.Args, first: make([]int, len(pattern.Args)), bound: -1,
		proj: proj, ground: ground,
	}
	for i, t := range pattern.Args {
		s.first[i] = slices.Index(pattern.Args, t)
		if t.IsConst() && s.bound < 0 {
			s.bound = i
		}
	}
	return s
}

// CQSelector returns the selector of a CQ's reads and subscriptions. A
// CQ of one atom whose every variable is an answer variable reads the
// KB's base view: its answers are ground consequences of that atom, and
// dat(Σ) has exactly Σ's ground consequences. It builds no plan of its
// own: its reads report, and without a view run, the atom plan of its
// pattern (AtomKey). Any other CQ needs dat(Σ∪q), and reads the view of
// its own plan. KBs without a compiled program have no base view.
func (ckb *CompiledKB) CQSelector(q kb.CQ) *Selector {
	if ckb.program == nil || len(q.Atoms) != 1 || len(q.Atoms[0].Annotation) > 0 {
		return planSelector(q)
	}
	a := q.Atoms[0]
	for _, t := range a.Args {
		if t.IsVar() && !slices.Contains(q.Answer, t) {
			return planSelector(q)
		}
	}
	proj := make([]int, len(q.Answer))
	for i, v := range q.Answer {
		proj[i] = slices.Index(a.Args, v)
	}
	return newSelector(CQKey(q), BaseKey, AtomKey(a), q, a, proj, true)
}

// planSelector is the selector of the view of q's own plan: every tuple
// of the plan's query relation QAns.
func planSelector(q kb.CQ) *Selector {
	key := CQKey(q)
	vars := make([]core.Term, len(q.Answer))
	proj := make([]int, len(q.Answer))
	for i := range vars {
		vars[i] = core.Var("X" + strconv.Itoa(i))
		proj[i] = i
	}
	return newSelector(key, key, key, q, core.NewAtom(kb.QueryRel, vars...), proj, true)
}

// AtomSelector returns the base-view selector of an atomic query, whose
// answers are the atom's full argument tuples, or nil when the KB has no
// compiled program and so no base view.
func (ckb *CompiledKB) AtomSelector(query core.Atom) *Selector {
	if ckb.program == nil || len(query.Annotation) > 0 {
		return nil
	}
	proj := make([]int, len(query.Args))
	for i := range proj {
		proj[i] = i
	}
	return newSelector("atom:"+parser.PrintAtom(query), BaseKey, AtomKey(query), kb.CQ{}, query, proj, false)
}

// Key identifies the query: two selectors with one key select the same
// answers from the same view.
func (s *Selector) Key() string { return s.key }

// View is the key of the view the selector reads: BaseKey, or the plan
// key of the CQ's own plan.
func (s *Selector) View() string { return s.view }

// PlanKey is the plan key its reads report.
func (s *Selector) PlanKey() string { return s.planKey }

// match returns the answer tuple of a fact of the selector's relation
// whose i-th argument is arg(i), or false when the fact does not match.
func (s *Selector) match(arg func(int) core.Term) ([]core.Term, bool) {
	for i, t := range s.args {
		a := arg(i)
		switch {
		case t.IsConst() && a != t:
			return nil, false
		case s.first[i] != i && a != arg(s.first[i]):
			return nil, false
		case s.ground && !a.IsConst():
			return nil, false
		}
	}
	out := make([]core.Term, len(s.proj))
	for i, p := range s.proj {
		out[i] = arg(p)
	}
	return out, true
}

// answers selects from a fixpoint, through the index of a bound
// position when the pattern has one, sorted like every answer list.
func (s *Selector) answers(d *database.Database) [][]core.Term {
	var out [][]core.Term
	r := d.Rel(s.rel)
	visit := func(f int) {
		tuple := r.Tuple(f)
		if ans, ok := s.match(func(i int) core.Term { return d.Term(tuple[i]) }); ok {
			out = append(out, ans)
		}
	}
	if s.bound >= 0 {
		id, ok := d.TermID(s.args[s.bound])
		if !ok {
			return nil
		}
		for _, f := range r.Posting(s.bound, id) {
			visit(int(f))
		}
	} else {
		for f, n := 0, r.Len(); f < n; f++ {
			visit(f)
		}
	}
	datalog.SortTuples(out)
	return out
}

// Delta filters the fact delta of one Apply of the view the selector
// reads down to the selector's answer delta.
func (s *Selector) Delta(d datalog.Delta) AnswerDelta {
	return AnswerDelta{Added: s.filter(d.Added), Removed: s.filter(d.Removed)}
}

// filter selects from a fact list, sorted like every answer list.
func (s *Selector) filter(facts []core.Atom) [][]core.Term {
	var out [][]core.Term
	for _, f := range facts {
		if f.Relation != s.rel.Name || len(f.Args) != s.rel.Arity || len(f.Annotation) != 0 {
			continue
		}
		if ans, ok := s.match(func(i int) core.Term { return f.Args[i] }); ok {
			out = append(out, ans)
		}
	}
	datalog.SortTuples(out)
	return out
}
