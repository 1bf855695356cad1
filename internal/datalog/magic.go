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
// error on programs with negation or existential rules.
func MagicRewrite(th *core.Theory, query core.Atom) (*MagicResult, error) {
	idb := make(map[string]bool)
	for _, r := range th.Rules {
		if !r.IsDatalog() {
			return nil, fmt.Errorf("magic: rule %s has existential variables", r.Label)
		}
		if r.HasNegation() {
			return nil, fmt.Errorf("magic: rule %s has negation (unsupported)", r.Label)
		}
		for _, h := range r.Head {
			idb[h.Relation] = true
		}
	}
	if !idb[query.Relation] {
		return nil, fmt.Errorf("magic: query relation %s is not derived by the program", query.Relation)
	}
	qa := adornmentOf(query)
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

// AnswerWithMagicOpts is AnswerWithMagic with explicit engine options. On
// budget exhaustion the answers extracted from the partial fixpoint are
// returned (a sound under-approximation) alongside the typed error.
func AnswerWithMagicOpts(th *core.Theory, query core.Atom, d *database.Database, opts Options) ([][]core.Term, *database.Database, error) {
	res, err := MagicRewrite(th, query)
	if err != nil {
		return nil, nil, err
	}
	seeded := d.Clone()
	seeded.Add(res.Seed)
	fix, evalErr := EvalSemiNaiveOpts(res.Program, seeded, opts)
	if evalErr != nil && (fix == nil || !budget.IsBudget(evalErr)) {
		return nil, nil, evalErr
	}
	// Filter: answers must match the query's bound constants.
	var out [][]core.Term
	for _, f := range fix.Facts(core.RelKey{Name: res.QueryRel, Arity: len(query.Args)}) {
		match := true
		for i, t := range query.Args {
			if t.IsConst() && f.Args[i] != t {
				match = false
				break
			}
		}
		if match {
			out = append(out, append([]core.Term(nil), f.Args...))
		}
	}
	return out, fix, evalErr
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

// adornmentOf computes the adornment of an atom: 'b' for constants (or
// variables in the given bound set), 'f' otherwise.
func adornmentOf(a core.Atom) string {
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
// rule and the magic rules for its IDB body atoms.
func (m *magicRewriter) rewriteRulesFor(p adornedPred) {
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
