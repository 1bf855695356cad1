// Package datalog implements bottom-up evaluation of Datalog programs
// (existential-free theories) with stratified negation: stratification via
// the predicate dependency graph, and per-stratum semi-naive fixpoints.
package datalog

import (
	"fmt"
	"slices"
	"sort"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
)

// Stratify partitions the rules into strata Σ1,...,Σn (Definition 22): a
// rule is placed in the stratum of its head relations, head levels are ≥
// body levels for positive dependencies and strictly greater for negative
// ones. It returns an error when no stratification exists (a negative
// cycle) or when a rule has existential variables.
// Existential rules are allowed (Section 8 stratifies existential
// theories); stratification only concerns relation dependencies.
func Stratify(th *core.Theory) ([][]*core.Rule, error) {
	edges := DependencyEdges(th)
	rels := make(map[string]bool)
	for _, r := range th.Rules {
		for _, h := range r.Head {
			rels[h.Relation] = true
		}
	}
	for _, e := range edges {
		rels[e.From], rels[e.To] = true, true
	}
	// Level assignment by iterated relaxation; n·|edges| passes suffice,
	// and a level exceeding the relation count certifies a negative cycle.
	level := make(map[string]int)
	n := len(rels)
	for changed, iter := true, 0; changed; iter++ {
		changed = false
		if iter > n*n+len(edges)+1 {
			return nil, fmt.Errorf("datalog: theory is not stratified (negation through recursion)")
		}
		for _, e := range edges {
			need := level[e.From]
			if e.Negative {
				need++
			}
			if level[e.To] < need {
				if need > n {
					return nil, fmt.Errorf("datalog: theory is not stratified (negation through recursion involving %s)", e.To)
				}
				level[e.To] = need
				changed = true
			}
		}
	}
	// Group rules by the level of their head relations. Multi-head rules
	// must have all heads on one level; normalization guarantees this for
	// the paper's constructions, but mixed heads are handled by taking the
	// maximum (sound because levels only order evaluation).
	maxLevel := 0
	for _, l := range level {
		if l > maxLevel {
			maxLevel = l
		}
	}
	strata := make([][]*core.Rule, maxLevel+1)
	for _, r := range th.Rules {
		l := 0
		for _, h := range r.Head {
			if level[h.Relation] > l {
				l = level[h.Relation]
			}
		}
		strata[l] = append(strata[l], r)
	}
	// Drop empty strata.
	var out [][]*core.Rule
	for _, s := range strata {
		if len(s) > 0 {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		out = [][]*core.Rule{{}}
	}
	return out, nil
}

// DepEdge is an edge of the predicate dependency graph (Definition 22):
// the relation To depends on From, negatively when Negative. Atom is the
// body atom the dependency comes from, or the head atom for an implicit
// edge to ACDom, and Rule is the rule that contributes the edge.
type DepEdge struct {
	From, To string
	Negative bool
	Atom     core.Atom
	Rule     *core.Rule
}

// DependencyEdges lists the dependency graph's edges in rule order: one
// per (body literal, head atom) pair of every rule, then the implicit
// head→ACDom edges. The built-in ACDom relation is maintained by the
// database: deriving a fact with a fresh constant implicitly derives an
// ACDom fact. Head variables are bound to terms of existing facts
// (already in the domain) and existential variables become nulls (never
// in ACDom), so fresh domain constants can only come from constants
// written in rule heads that no positive body atom mentions. When some
// rule reads ACDom, such heads carry an implicit positive edge to ACDom —
// without it, an ACDom-reading rule could be stratified below a rule
// introducing a new head constant and miss its derivations.
func DependencyEdges(th *core.Theory) []DepEdge {
	var edges []DepEdge
	readsACDom := false
	for _, r := range th.Rules {
		for _, h := range r.Head {
			for _, l := range r.Body {
				edges = append(edges, DepEdge{l.Atom.Relation, h.Relation, l.Negated, l.Atom, r})
				if l.Atom.Relation == core.ACDom {
					readsACDom = true
				}
			}
		}
	}
	if !readsACDom {
		return edges
	}
	for _, r := range th.Rules {
		if !introducesConstants(r) {
			continue
		}
		for _, h := range r.Head {
			if h.Relation != core.ACDom {
				edges = append(edges, DepEdge{h.Relation, core.ACDom, false, h, r})
			}
		}
	}
	return edges
}

// Cone returns the rules of th that rel's facts depend on, in th's
// order: those whose head relations rel depends on, transitively, in
// the dependency graph of DependencyEdges. When the cone reads ACDom,
// that includes every rule that writes a head constant, which widens
// the active domain. No other rule's facts feed rel, so evaluating the cone
// derives exactly th's facts of rel. ACDom itself spans every relation:
// query it through the whole program.
func Cone(th *core.Theory, rel string) *core.Theory {
	need := map[string]bool{rel: true}
	in := make([]bool, len(th.Rules))
	for grown := true; grown; {
		grown = false
		for i, r := range th.Rules {
			if in[i] || !slices.ContainsFunc(r.Head, func(h core.Atom) bool { return need[h.Relation] }) && !(need[core.ACDom] && introducesConstants(r)) {
				continue
			}
			in[i], grown = true, true
			for _, l := range r.Body {
				need[l.Atom.Relation] = true
			}
		}
	}
	out := core.NewTheory()
	for i, r := range th.Rules {
		if in[i] {
			out.Add(r)
		}
	}
	return out
}

// introducesConstants reports whether firing the rule can put a constant
// into the active domain that was not there before: some head atom writes
// a constant that no positive body atom mentions (a match of the positive
// body witnesses that its constants already occur in facts).
func introducesConstants(r *core.Rule) bool {
	bodyConsts := make(core.TermSet)
	for _, l := range r.Body {
		if l.Negated {
			continue
		}
		for _, t := range l.Atom.Args {
			if t.IsConst() {
				bodyConsts.Add(t)
			}
		}
		for _, t := range l.Atom.Annotation {
			if t.IsConst() {
				bodyConsts.Add(t)
			}
		}
	}
	for _, h := range r.Head {
		for _, t := range h.Args {
			if t.IsConst() && !bodyConsts.Has(t) {
				return true
			}
		}
		for _, t := range h.Annotation {
			if t.IsConst() && !bodyConsts.Has(t) {
				return true
			}
		}
	}
	return false
}

// Eval computes the stratified fixpoint of a Datalog program over the
// database, using the native semi-naive evaluator. Rules must have no
// existential variables.
func Eval(th *core.Theory, d *database.Database) (*database.Database, error) {
	return EvalSemiNaive(th, d)
}

// EvalViaChase computes the same fixpoint through the generic chase
// engine. It is the independent reference the datalog differential
// tests (seminaive, planner, evalstratum and ACDom regression suites)
// compare EvalSemiNaive against; the A1 ablation also times it. The
// chase keeps a trigger memo that Datalog does not need, so
// EvalSemiNaive dominates it.
func EvalViaChase(th *core.Theory, d *database.Database) (*database.Database, error) {
	for _, r := range th.Rules {
		if !r.IsDatalog() {
			return nil, fmt.Errorf("datalog: rule %s has existential variables", r.Label)
		}
	}
	strata, err := Stratify(th)
	if err != nil {
		return nil, err
	}
	cur := d.Clone()
	for i, rules := range strata {
		res, err := chase.Run(core.NewTheory(rules...), cur, chase.Options{
			Variant: chase.Restricted,
			Budget:  &budget.T{MaxRounds: 1_000_000, MaxFacts: 50_000_000},
		})
		if err != nil {
			return nil, fmt.Errorf("datalog: stratum %d: %w", i, err)
		}
		if !res.Saturated {
			return nil, fmt.Errorf("datalog: stratum %d did not saturate", i)
		}
		cur = res.DB
	}
	return cur, nil
}

// Answers evaluates the query (Σ, Q) over D (Section 2): the set of
// constant tuples ~c with Q(~c) in the fixpoint. Tuples are returned in
// sorted textual order.
func Answers(th *core.Theory, q string, d *database.Database) ([][]core.Term, error) {
	return AnswersOpts(th, q, d, Options{})
}

// AnswersOpts is Answers with explicit engine options. On budget
// exhaustion the answers of the partial fixpoint are returned (a sound
// under-approximation) alongside the typed error.
func AnswersOpts(th *core.Theory, q string, d *database.Database, opts Options) ([][]core.Term, error) {
	fix, err := EvalSemiNaiveOpts(th, d, opts)
	if err != nil {
		if fix != nil && budget.IsBudget(err) {
			return CollectAnswers(fix, q), err
		}
		return nil, err
	}
	return CollectAnswers(fix, q), nil
}

// CollectAnswers extracts the all-constant Q-tuples of a database.
func CollectAnswers(d *database.Database, q string) [][]core.Term {
	var out [][]core.Term
	for _, rk := range d.Relations() {
		if rk.Name != q {
			continue
		}
		r := d.Rel(rk)
	facts:
		for f, n := 0, r.Len(); f < n; f++ {
			args := r.Tuple(f)[:rk.Arity]
			for _, id := range args {
				if !d.Term(id).IsConst() {
					continue facts
				}
			}
			out = append(out, termsOf(d, args))
		}
	}
	SortTuples(out)
	return out
}

// termsOf returns the terms of the interned ids (nil for none).
func termsOf(d *database.Database, ids []uint32) []core.Term {
	if len(ids) == 0 {
		return nil
	}
	out := make([]core.Term, len(ids))
	for i, id := range ids {
		out[i] = d.Term(id)
	}
	return out
}

// SortTuples sorts answer tuples lexicographically, comparing terms by
// name, then kind. The order is total, so it does not depend on the
// input order even when a constant and a null share a name.
func SortTuples(out [][]core.Term) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if k >= len(b) {
				return false
			}
			if a[k].Name != b[k].Name {
				return a[k].Name < b[k].Name
			}
			if a[k].Kind != b[k].Kind {
				return a[k].Kind < b[k].Kind
			}
		}
		return len(a) < len(b)
	})
}

// SameAnswers reports whether two answer sets are equal, and a witness
// difference if not.
func SameAnswers(a, b [][]core.Term) (bool, string) {
	key := func(t []core.Term) string {
		s := ""
		for _, x := range t {
			s += x.String() + ","
		}
		return s
	}
	am := make(map[string]bool, len(a))
	for _, t := range a {
		am[key(t)] = true
	}
	bm := make(map[string]bool, len(b))
	for _, t := range b {
		bm[key(t)] = true
	}
	for k := range am {
		if !bm[k] {
			return false, "only in first: " + k
		}
	}
	for k := range bm {
		if !am[k] {
			return false, "only in second: " + k
		}
	}
	return true, ""
}
