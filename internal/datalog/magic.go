package datalog

import (
	"fmt"
	"strings"

	"guardedrules/internal/budget"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
)

// Magic sets: the classical goal-directed rewriting for Datalog. Given a
// program and a query atom with some arguments bound to constants, the
// rewriting produces a program whose bottom-up evaluation only derives
// facts relevant to the query — mimicking top-down resolution while
// keeping the semi-naive engine.
//
// The rewriting uses the standard left-to-right sideways information
// passing strategy (SIPS): a body position is bound if it holds a
// constant, a head-bound variable, or a variable bound by an earlier body
// atom.

// MagicResult is the output of MagicRewrite.
type MagicResult struct {
	// Program is the rewritten Datalog program (adorned IDB relations plus
	// magic relations; EDB atoms keep their names).
	Program *core.Theory
	// Seed is the magic seed fact for the query bindings.
	Seed core.Atom
	// QueryRel is the adorned relation answering the query; its arity
	// equals the original query relation's.
	QueryRel string
}

// MagicRewrite rewrites the negation-free Datalog program for the query
// atom (constants = bound arguments, variables = free). It returns an
// error on programs with negation or existential rules, and on programs
// that read ACDom: the active domain spans every fact of the fixpoint,
// so a goal-directed fixpoint, which derives only some facts and adds
// magic ones, has a different one.
func MagicRewrite(th *core.Theory, query core.Atom) (*MagicResult, error) {
	idb := make(map[string]bool)
	for _, r := range th.Rules {
		if !r.IsDatalog() {
			return nil, fmt.Errorf("magic: rule %s has existential variables", r.Label)
		}
		if r.HasNegation() {
			return nil, fmt.Errorf("magic: rule %s has negation (unsupported)", r.Label)
		}
		for _, l := range r.Body {
			if l.Atom.Relation == core.ACDom {
				return nil, fmt.Errorf("magic: rule %s reads %s (unsupported)", r.Label, core.ACDom)
			}
		}
		for _, h := range r.Head {
			idb[h.Relation] = true
		}
	}
	if !idb[query.Relation] {
		return nil, fmt.Errorf("magic: query relation %s is not derived by the program", query.Relation)
	}
	qa := Adornment(query)
	m := &magicRewriter{
		th:    th,
		idb:   idb,
		done:  map[string]bool{},
		out:   core.NewTheory(),
		queue: []adornedPred{{query.Relation, qa}},
	}
	for len(m.queue) > 0 {
		p := m.queue[0]
		m.queue = m.queue[1:]
		key := p.rel + "/" + p.adornment
		if m.done[key] {
			continue
		}
		m.done[key] = true
		m.rewriteRulesFor(p)
	}
	// Seed: the magic fact carrying the query's bound constants.
	var bound []core.Term
	for i, t := range query.Args {
		if qa[i] == 'b' {
			bound = append(bound, t)
		}
	}
	return &MagicResult{
		Program:  core.StampGenerated(m.out, "magic-sets"),
		Seed:     core.NewAtom(magicName(query.Relation, qa), bound...),
		QueryRel: adornedName(query.Relation, qa),
	}, nil
}

// AnswerWithMagic rewrites, seeds, evaluates and extracts the query
// answers: the tuples of the adorned query relation.
func AnswerWithMagic(th *core.Theory, query core.Atom, d *database.Database) ([][]core.Term, *database.Database, error) {
	return AnswerWithMagicOpts(th, query, d, Options{})
}

// AnswerWithMagicOpts is AnswerWithMagic with explicit engine options:
// it evaluates the rewritten program over d seeded with the goal, and
// returns, in fixpoint order, the tuples of the adorned query relation
// that answer query (constants coincide, repeated variables bind
// consistently), together with the fixpoint. On budget exhaustion the
// answers extracted from the partial fixpoint are returned (a sound
// under-approximation) alongside the typed error; on any other error
// the fixpoint is nil. d is not modified.
func AnswerWithMagicOpts(th *core.Theory, query core.Atom, d *database.Database, opts Options) ([][]core.Term, *database.Database, error) {
	res, err := MagicRewrite(th, query)
	if err != nil {
		return nil, nil, err
	}
	p, err := Compile(res.Program)
	if err != nil {
		return nil, nil, err
	}
	fix, err := p.EvalSeeded(d, []core.Atom{res.Seed}, opts)
	if err != nil && (fix == nil || !budget.IsBudget(err)) {
		return nil, nil, err
	}
	var out [][]core.Term
	rk := core.RelKey{Name: res.QueryRel, Arity: len(query.Args)}
	r := fix.Rel(rk)
	for f, n := 0, r.Len(); f < n; f++ {
		args := r.Tuple(f)
		if matchesAtom(fix, query, args) {
			out = append(out, termsOf(fix, args))
		}
	}
	return out, fix, err
}

// matchesAtom reports whether the id tuple args of d answers the query
// atom: constants must coincide and repeated variables must bind
// consistently. The magic-sets adornment records only which positions
// are bound, so a goal-directed fixpoint still needs this filter.
func matchesAtom(d *database.Database, query core.Atom, args []uint32) bool {
	for i, t := range query.Args {
		if t.IsConst() {
			if d.Term(args[i]) != t {
				return false
			}
			continue
		}
		for j := 0; j < i; j++ {
			if query.Args[j] == t && args[j] != args[i] {
				return false
			}
		}
	}
	return true
}

type adornedPred struct {
	rel       string
	adornment string
}

type magicRewriter struct {
	th    *core.Theory
	idb   map[string]bool
	done  map[string]bool
	out   *core.Theory
	queue []adornedPred
}

// Adornment computes the adornment of an atom, its binding pattern: 'b'
// for each constant argument, 'f' for each variable.
func Adornment(a core.Atom) string {
	var sb strings.Builder
	for _, t := range a.Args {
		if t.IsConst() {
			sb.WriteByte('b')
		} else {
			sb.WriteByte('f')
		}
	}
	return sb.String()
}

func adornedName(rel, adornment string) string { return rel + "__" + adornment }
func magicName(rel, adornment string) string   { return "Magic__" + rel + "__" + adornment }

// rewriteRulesFor emits, for every rule defining p, the guarded rewritten
// rule and the magic rules for its IDB body atoms, and the rule that
// imports the database's own p facts into p's adorned relation: a
// relation a rule derives may hold facts of the database too.
func (m *magicRewriter) rewriteRulesFor(p adornedPred) {
	args := make([]core.Term, len(p.adornment))
	var magicArgs []core.Term
	for i := range args {
		args[i] = core.Var(fmt.Sprintf("X%d", i))
		if p.adornment[i] == 'b' {
			magicArgs = append(magicArgs, args[i])
		}
	}
	m.out.Add(&core.Rule{
		Body:  []core.Literal{core.Pos(core.NewAtom(magicName(p.rel, p.adornment), magicArgs...)), core.Pos(core.NewAtom(p.rel, args...))},
		Head:  []core.Atom{core.NewAtom(adornedName(p.rel, p.adornment), args...)},
		Label: "magic_import_" + p.rel,
	})
	for _, r := range m.th.Rules {
		for _, h := range r.Head {
			if h.Relation != p.rel {
				continue
			}
			m.rewriteRule(r, h, p.adornment)
		}
	}
}

func (m *magicRewriter) rewriteRule(r *core.Rule, head core.Atom, adornment string) {
	// Bound variables: head positions adorned 'b'.
	bound := make(core.TermSet)
	var magicArgs []core.Term
	for i, t := range head.Args {
		if adornment[i] == 'b' {
			magicArgs = append(magicArgs, t)
			if t.IsVar() {
				bound.Add(t)
			}
		}
	}
	newBody := []core.Literal{core.Pos(core.NewAtom(magicName(head.Relation, adornment), magicArgs...))}
	// Left-to-right SIPS over the body.
	for _, l := range r.Body {
		a := l.Atom
		if m.idb[a.Relation] {
			// Adorn by current boundness.
			var sb strings.Builder
			var bArgs []core.Term
			for _, t := range a.Args {
				if t.IsConst() || (t.IsVar() && bound.Has(t)) {
					sb.WriteByte('b')
					bArgs = append(bArgs, t)
				} else {
					sb.WriteByte('f')
				}
			}
			sub := sb.String()
			// Magic rule: the bindings flowing into this subgoal.
			magicHead := core.NewAtom(magicName(a.Relation, sub), bArgs...)
			mr := &core.Rule{
				Body:  append([]core.Literal(nil), newBody...),
				Head:  []core.Atom{magicHead},
				Label: r.Label + "_magic_" + a.Relation,
			}
			m.out.Add(mr)
			m.queue = append(m.queue, adornedPred{a.Relation, sub})
			// The subgoal itself, adorned.
			ad := a.Clone()
			ad.Relation = adornedName(a.Relation, sub)
			newBody = append(newBody, core.Literal{Atom: ad, Negated: l.Negated})
		} else {
			newBody = append(newBody, l)
		}
		// Everything in this atom becomes bound downstream.
		for v := range a.Vars() {
			bound.Add(v)
		}
	}
	nh := head.Clone()
	nh.Relation = adornedName(head.Relation, adornment)
	m.out.Add(&core.Rule{Body: newBody, Head: []core.Atom{nh}, Label: r.Label + "_adorned"})
}
