package lint

import (
	"fmt"
	"sort"
	"strings"

	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/datalog"
	"guardedrules/internal/termination"
)

// ---------------------------------------------------------------------------
// safety — SF001..SF006
//
// The checks mirror core.Rule.CheckSafe and core.Theory.CheckSafe, but
// report every violation with the position of the offending atom instead
// of stopping at the first.

func runSafety(ctx *Context) []Diagnostic {
	var out []Diagnostic
	for _, r := range ctx.Theory.Rules {
		label := r.Label
		if len(r.Head) == 0 {
			out = append(out, Diagnostic{
				Code: "SF006", Severity: Error, Rule: label, Span: ruleSpan(r),
				Message: "rule has an empty head",
			})
		}
		uv := r.UVars()
		ev := r.EVarSet()
		// SF001: frontier variable in no body atom (unsafe head variable).
		for _, h := range r.Head {
			missing := make(core.TermSet)
			for v := range h.Vars() {
				if !ev.Has(v) && !uv.Has(v) {
					missing.Add(v)
				}
			}
			if len(missing) > 0 {
				names := varNames(missing)
				out = append(out, Diagnostic{
					Code: "SF001", Severity: Error, Rule: label, Span: atomSpan(h, r),
					Message: fmt.Sprintf("unsafe rule: head variable%s %s occur%s in no positive body atom (and %s not existential)",
						plural(names), strings.Join(names, ", "), singular(names), isAre(names)),
					Detail: &Detail{Vars: names},
				})
			}
		}
		// SF002: existential variable used in the body.
		for _, l := range r.Body {
			bad := l.Atom.Vars().Intersect(ev)
			if len(bad) > 0 {
				names := varNames(bad)
				out = append(out, Diagnostic{
					Code: "SF002", Severity: Error, Rule: label, Span: atomSpan(l.Atom, r),
					Message: fmt.Sprintf("existential variable%s %s occur%s in the body",
						plural(names), strings.Join(names, ", "), singular(names)),
					Detail: &Detail{Vars: names},
				})
			}
		}
		// SF003: negated-atom variable not bound by a positive atom.
		posVars := make(core.TermSet)
		for _, l := range r.Body {
			if !l.Negated {
				posVars.AddAll(l.Atom.Vars())
			}
		}
		for _, l := range r.Body {
			if !l.Negated {
				continue
			}
			unbound := l.Atom.Vars().Minus(posVars)
			if len(unbound) > 0 {
				names := varNames(unbound)
				out = append(out, Diagnostic{
					Code: "SF003", Severity: Error, Rule: label, Span: atomSpan(l.Atom, r),
					Message: fmt.Sprintf("variable%s %s of negated atom %s %s not bound by a positive body atom",
						plural(names), strings.Join(names, ", "), l.Atom, isAre(names)),
					Detail: &Detail{Vars: names},
				})
			}
		}
		// SF004: head annotation variable not bound anywhere in the body.
		bodyAll := make(core.TermSet)
		for _, l := range r.Body {
			bodyAll.AddAll(l.Atom.AllVars())
		}
		for _, h := range r.Head {
			unbound := h.AnnVars().Minus(bodyAll)
			if len(unbound) > 0 {
				names := varNames(unbound)
				out = append(out, Diagnostic{
					Code: "SF004", Severity: Error, Rule: label, Span: atomSpan(h, r),
					Message: fmt.Sprintf("head annotation variable%s %s %s not bound in the body",
						plural(names), strings.Join(names, ", "), isAre(names)),
					Detail: &Detail{Vars: names},
				})
			}
		}
		// SF005: the built-in ACDom relation in a head.
		for _, h := range r.Head {
			if h.Relation == core.ACDom {
				out = append(out, Diagnostic{
					Code: "SF005", Severity: Error, Rule: label, Span: atomSpan(h, r),
					Message: core.ACDom + " is maintained by the database and is prohibited from rule heads",
					Detail:  &Detail{Relations: []string{core.ACDom}},
				})
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// fragments — GR000..GR006
//
// One explainer per class of internal/classify: each diagnostic states
// which rule keeps the theory out of the class and why, with the
// uncovered variables computed by classify.GuardResidue. Severities are
// informational — most theories are legitimately outside most classes —
// except GR004: a rule that is not even weakly frontier-guarded puts the
// theory outside every fragment of Figure 1.

func runFragments(ctx *Context) []Diagnostic {
	var out []Diagnostic
	ap := ctx.AP()
	for _, r := range ctx.Theory.Rules {
		label := r.Label
		span := ruleSpan(r)
		if !r.IsDatalog() {
			names := varNames(r.EVarSet())
			out = append(out, Diagnostic{
				Code: "GR000", Severity: Info, Rule: label, Span: span,
				Message: fmt.Sprintf("rule is not Datalog: existential variable%s %s invent%s values",
					plural(names), strings.Join(names, ", "), singularVerb(names)),
				Detail: &Detail{Vars: names},
			})
		}
		if d, ok := residueDiag(r, "GR001", "guarded", "universal variable", r.UVars(), nil); ok {
			d.Span, d.Rule = span, label
			out = append(out, d)
		}
		if d, ok := residueDiag(r, "GR002", "frontier-guarded", "frontier variable", r.FVars(), nil); ok {
			d.Span, d.Rule = span, label
			out = append(out, d)
		}
		unsafe := classify.Unsafe(r, ap)
		if d, ok := residueDiag(r, "GR003", "weakly guarded", "unsafe variable", unsafe, affectedBodyPositions(r, unsafe, ap)); ok {
			d.Span, d.Rule = span, label
			out = append(out, d)
		}
		needWFG := r.FVars().Intersect(unsafe)
		if d, ok := residueDiag(r, "GR004", "weakly frontier-guarded", "unsafe frontier variable", needWFG, affectedBodyPositions(r, needWFG, ap)); ok {
			d.Severity = Warning
			d.Message += "; the theory is outside every fragment of Figure 1"
			d.Span, d.Rule = span, label
			out = append(out, d)
		}
		if !classify.IsNearlyGuarded(r, ap) {
			out = append(out, nearlyDiag(r, "GR005", "nearly guarded", "guarded", unsafe, span, label))
		}
		if !classify.IsNearlyFrontierGuarded(r, ap) {
			out = append(out, nearlyDiag(r, "GR006", "nearly frontier-guarded", "frontier-guarded", unsafe, span, label))
		}
	}
	return out
}

// residueDiag builds the "not in class" diagnostic for a guard
// requirement over need, or ok=false when the rule satisfies it.
func residueDiag(r *core.Rule, code, class, kind string, need core.TermSet, positions []string) (Diagnostic, bool) {
	guard, residue := classify.GuardResidue(r, need)
	if len(residue) == 0 {
		return Diagnostic{}, false
	}
	names := varNames(residue)
	needNames := varNames(need)
	detail := &Detail{Vars: names, Positions: positions}
	var msg string
	if guard.Relation == "" {
		msg = fmt.Sprintf("rule is not %s: no positive body atom exists to cover %s%s %s",
			class, kind, plural(names), strings.Join(names, ", "))
	} else {
		detail.Guard = guard.String()
		msg = fmt.Sprintf("rule is not %s: no body atom covers %s%s %s (best candidate %s misses %s)",
			class, kind, plural(needNames), strings.Join(needNames, ", "), guard, strings.Join(names, ", "))
	}
	return Diagnostic{Code: code, Severity: Info, Message: msg, Detail: detail}, true
}

// nearlyDiag explains why a rule is not nearly (frontier-)guarded
// (Definition 3): it is not (frontier-)guarded and either invents values
// or has unsafe variables.
func nearlyDiag(r *core.Rule, code, class, base string, unsafe core.TermSet, span core.Span, label string) Diagnostic {
	var reasons []string
	detail := &Detail{}
	if len(r.Exist) > 0 {
		ev := varNames(r.EVarSet())
		reasons = append(reasons, fmt.Sprintf("has existential variable%s %s", plural(ev), strings.Join(ev, ", ")))
		detail.Vars = append(detail.Vars, ev...)
	}
	if len(unsafe) > 0 {
		uv := varNames(unsafe)
		reasons = append(reasons, fmt.Sprintf("has unsafe variable%s %s (bound only at affected positions)", plural(uv), strings.Join(uv, ", ")))
		detail.Vars = append(detail.Vars, uv...)
	}
	return Diagnostic{
		Code: code, Severity: Info, Rule: label, Span: span,
		Message: fmt.Sprintf("rule is not %s: it is not %s and %s", class, base, strings.Join(reasons, " and ")),
		Detail:  detail,
	}
}

// affectedBodyPositions lists the affected positions at which the given
// variables occur in the positive body — the positions that make them
// unsafe.
func affectedBodyPositions(r *core.Rule, vars core.TermSet, ap classify.PosSet) []string {
	if len(vars) == 0 {
		return nil
	}
	var ps []classify.Position
	seen := map[classify.Position]bool{}
	for _, a := range r.PositiveBody() {
		for i, t := range a.Args {
			p := classify.Position{Rel: a.Key(), Index: i}
			if t.IsVar() && vars.Has(t) && ap[p] && !seen[p] {
				seen[p] = true
				ps = append(ps, p)
			}
		}
	}
	return posNames(ps)
}

// ---------------------------------------------------------------------------
// variables — VAR001, VAR002

func runVariables(ctx *Context) []Diagnostic {
	var out []Diagnostic
	for _, r := range ctx.Theory.Rules {
		ev := r.EVarSet()
		// Count argument and annotation occurrences of every variable, and
		// remember the first atom containing it.
		count := map[core.Term]int{}
		first := map[core.Term]core.Atom{}
		note := func(a core.Atom) {
			for _, t := range append(append([]core.Term{}, a.Args...), a.Annotation...) {
				if !t.IsVar() {
					continue
				}
				count[t]++
				if _, ok := first[t]; !ok {
					first[t] = a
				}
			}
		}
		for _, l := range r.Body {
			note(l.Atom)
		}
		for _, h := range r.Head {
			note(h)
		}
		var singletons []core.Term
		for v, n := range count {
			// A leading underscore marks a variable as intentionally unused;
			// existential variables legitimately occur once, and head-only
			// universal variables are already an SF001 error.
			if n == 1 && !ev.Has(v) && !strings.HasPrefix(v.Name, "_") && r.UVars().Has(v) {
				singletons = append(singletons, v)
			}
		}
		core.SortTerms(singletons)
		for _, v := range singletons {
			out = append(out, Diagnostic{
				Code: "VAR001", Severity: Info, Rule: r.Label, Span: atomSpan(first[v], r),
				Message: fmt.Sprintf("variable %s occurs only once in the rule (prefix it with '_' if intentional)", v.Name),
				Detail:  &Detail{Vars: []string{v.Name}},
			})
		}
		// Near-miss names: two variables whose names are within edit
		// distance 1, one of which occurs exactly once — a likely typo.
		vars := make([]core.Term, 0, len(count))
		for v := range count {
			vars = append(vars, v)
		}
		core.SortTerms(vars)
		for i, v := range vars {
			for _, w := range vars[i+1:] {
				// At least one of the pair must be a lone universal
				// variable: repeated variables and existential variables
				// (which legitimately occur once) are not typo suspects.
				loneOK := func(t core.Term) bool {
					return count[t] == 1 && !ev.Has(t) && !strings.HasPrefix(t.Name, "_")
				}
				if !loneOK(v) && !loneOK(w) {
					continue
				}
				if !nearMiss(v.Name, w.Name) {
					continue
				}
				lone := v
				if loneOK(w) && !loneOK(v) {
					lone = w
				}
				other := v
				if lone == v {
					other = w
				}
				out = append(out, Diagnostic{
					Code: "VAR002", Severity: Warning, Rule: r.Label, Span: atomSpan(first[lone], r),
					Message: fmt.Sprintf("variable %s occurs once and differs from %s only by one character; possible typo",
						lone.Name, other.Name),
					Detail: &Detail{Vars: []string{lone.Name, other.Name}},
				})
			}
		}
	}
	return out
}

// nearMiss reports whether two distinct names are within edit distance 1
// (substitution, insertion or deletion) or equal ignoring case. Two
// conventional patterns are exempt: distinct single-character names
// (X vs Y) and enumerated names sharing a stem with different trailing
// digits (K1 vs K2, Z vs Z2).
func nearMiss(a, b string) bool {
	if a == b {
		return false
	}
	if len(a) == 1 && len(b) == 1 {
		return false
	}
	if stripDigits(a) == stripDigits(b) {
		return false
	}
	if strings.EqualFold(a, b) {
		return true
	}
	la, lb := len(a), len(b)
	switch {
	case la == lb:
		diff := 0
		for i := 0; i < la; i++ {
			if a[i] != b[i] {
				diff++
			}
		}
		return diff == 1
	case la+1 == lb:
		return oneInsertion(a, b)
	case lb+1 == la:
		return oneInsertion(b, a)
	}
	return false
}

// stripDigits removes a trailing run of digits.
func stripDigits(s string) string {
	return strings.TrimRight(s, "0123456789")
}

// oneInsertion reports whether long is short with one extra character.
func oneInsertion(short, long string) bool {
	i, j, used := 0, 0, false
	for i < len(short) && j < len(long) {
		if short[i] == long[j] {
			i++
			j++
			continue
		}
		if used {
			return false
		}
		used = true
		j++
	}
	return true
}

// ---------------------------------------------------------------------------
// predicates — PRED001..PRED004

func runPredicates(ctx *Context) []Diagnostic {
	var out []Diagnostic
	type occurrence struct {
		key  core.RelKey
		span core.Span
	}
	firstShape := map[string]occurrence{}
	firstSpelling := map[string][]string{} // lowercase name -> spellings in order
	firstAtom := map[string]core.Atom{}
	inHead := map[string]bool{}
	inPosBody := map[string]bool{}
	inNegBody := map[string]bool{}
	headAtom := map[string]core.Atom{}
	headRule := map[string]*core.Rule{}

	visit := func(a core.Atom, r *core.Rule) {
		name := a.Relation
		if prev, ok := firstShape[name]; ok {
			if prev.key != a.Key() {
				out = append(out, Diagnostic{
					Code: "PRED001", Severity: Error, Rule: r.Label, Span: atomSpan(a, r),
					Message: fmt.Sprintf("relation %s used with arity %d/annotation arity %d here but arity %d/annotation arity %d at %s",
						name, a.Key().Arity, a.Key().AnnArity, prev.key.Arity, prev.key.AnnArity, prev.span),
					Detail: &Detail{Relations: []string{name}},
				})
			}
		} else {
			firstShape[name] = occurrence{a.Key(), atomSpan(a, r)}
			firstAtom[name] = a
			low := strings.ToLower(name)
			dup := false
			for _, s := range firstSpelling[low] {
				if s == name {
					dup = true
				}
			}
			if !dup {
				firstSpelling[low] = append(firstSpelling[low], name)
				if len(firstSpelling[low]) > 1 {
					out = append(out, Diagnostic{
						Code: "PRED002", Severity: Warning, Rule: r.Label, Span: atomSpan(a, r),
						Message: fmt.Sprintf("relation %s differs only in case from %s (%s); did you mean the same relation?",
							name, firstSpelling[low][0], firstShape[firstSpelling[low][0]].span),
						Detail: &Detail{Relations: append([]string(nil), firstSpelling[low]...)},
					})
				}
			}
		}
	}

	for _, r := range ctx.Theory.Rules {
		for _, l := range r.Body {
			visit(l.Atom, r)
			if l.Negated {
				inNegBody[l.Atom.Relation] = true
			} else {
				inPosBody[l.Atom.Relation] = true
			}
		}
		for _, h := range r.Head {
			visit(h, r)
			if !inHead[h.Relation] {
				inHead[h.Relation] = true
				headAtom[h.Relation] = h
				headRule[h.Relation] = r
			}
		}
	}

	names := make([]string, 0, len(firstShape))
	for n := range firstShape {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		switch {
		case inHead[n] && !inPosBody[n] && !inNegBody[n]:
			out = append(out, Diagnostic{
				Code: "PRED003", Severity: Info, Rule: headRule[n].Label, Span: atomSpan(headAtom[n], headRule[n]),
				Message: fmt.Sprintf("relation %s is derived but never read by any rule (query output?)", n),
				Detail:  &Detail{Relations: []string{n}},
			})
		case !inHead[n] && inNegBody[n] && !inPosBody[n] && n != core.ACDom:
			out = append(out, Diagnostic{
				Code: "PRED004", Severity: Info, Span: firstShape[n].span,
				Message: fmt.Sprintf("relation %s occurs only under negation; unless it is a database relation, 'not %s(...)' always holds", n, n),
				Detail:  &Detail{Relations: []string{n}},
			})
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// stratify — ST001
//
// A theory is stratified (Definition 22) when no relation depends
// negatively on itself through the predicate dependency graph. The pass
// reads the graph datalog.Stratify levels — including the implicit
// head→ACDom edges of constant-introducing rules when ACDom is read — but
// reports the offending cycle instead of a bare error.

func runStratify(ctx *Context) []Diagnostic {
	edges := datalog.DependencyEdges(ctx.Theory)
	var order []string
	seenNode := map[string]bool{}
	adj := map[string][]string{}
	for _, e := range edges {
		for _, n := range [2]string{e.To, e.From} {
			if !seenNode[n] {
				seenNode[n] = true
				order = append(order, n)
			}
		}
		adj[e.From] = append(adj[e.From], e.To)
	}
	comp := sccOf(order, adj)

	var out []Diagnostic
	reported := map[int]bool{}
	for _, e := range edges {
		if !e.Negative || comp[e.From] != comp[e.To] || reported[comp[e.From]] {
			continue
		}
		reported[comp[e.From]] = true
		// The cycle: to → ... → from, closed by the negative edge
		// from → to. Restrict the search to the component.
		cycle := cyclePath(e.To, e.From, adj, comp)
		cycle = append(cycle, e.To)
		out = append(out, Diagnostic{
			Code: "ST001", Severity: Error, Rule: e.Rule.Label, Span: atomSpan(e.Atom, e.Rule),
			Message: fmt.Sprintf("negation is not stratified: %s depends negatively on itself (cycle: %s; 'not %s' closes it)",
				e.To, strings.Join(cycle, " -> "), e.From),
			Detail: &Detail{Relations: []string{e.From, e.To}, Cycle: cycle},
		})
	}
	return out
}

// sccOf computes strongly connected components (iterative Tarjan) with
// deterministic numbering given the node order.
func sccOf(order []string, adj map[string][]string) map[string]int {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	comp := map[string]int{}
	var stack []string
	next, ncomp := 0, 0

	type frame struct {
		node string
		ei   int
	}
	for _, root := range order {
		if _, ok := index[root]; ok {
			continue
		}
		var frames []frame
		push := func(n string) {
			index[n] = next
			low[n] = next
			next++
			stack = append(stack, n)
			onStack[n] = true
			frames = append(frames, frame{node: n})
		}
		push(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(adj[f.node]) {
				w := adj[f.node][f.ei]
				f.ei++
				if _, ok := index[w]; !ok {
					push(w)
				} else if onStack[w] && index[w] < low[f.node] {
					low[f.node] = index[w]
				}
				continue
			}
			// Pop the frame.
			n := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].node
				if low[n] < low[parent] {
					low[parent] = low[n]
				}
			}
			if low[n] == index[n] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == n {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp
}

// cyclePath returns a shortest relation path from → ... → to staying
// inside from's strongly connected component.
func cyclePath(from, to string, adj map[string][]string, comp map[string]int) []string {
	if from == to {
		return []string{from}
	}
	parent := map[string]string{from: from}
	queue := []string{from}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, w := range adj[n] {
			if comp[w] != comp[from] {
				continue
			}
			if _, ok := parent[w]; ok {
				continue
			}
			parent[w] = n
			if w == to {
				var rev []string
				for cur := to; ; cur = parent[cur] {
					rev = append(rev, cur)
					if cur == from {
						break
					}
				}
				out := make([]string, 0, len(rev))
				for i := len(rev) - 1; i >= 0; i-- {
					out = append(out, rev[i])
				}
				return out
			}
			queue = append(queue, w)
		}
	}
	// Unreachable for edges inside one SCC; return the endpoints so the
	// diagnostic stays meaningful.
	return []string{from, to}
}

// ---------------------------------------------------------------------------
// termination — TM001

func runTermination(ctx *Context) []Diagnostic {
	rep := ctx.Termination()
	switch rep.Class {
	case termination.ClassWA:
		// Datalog theories are trivially weakly acyclic; only report the
		// certificate when the theory actually invents values.
		var first *core.Rule
		for _, r := range ctx.Theory.Rules {
			if len(r.Exist) > 0 {
				first = r
				break
			}
		}
		if first == nil {
			return nil
		}
		return []Diagnostic{{
			Code: "TM002", Severity: Info,
			Message: fmt.Sprintf("chase terminates: the theory is weakly acyclic (max special-edge rank %d); a certified fact bound is available",
				rep.Bound.MaxRank),
			Rule: first.Label, Span: ruleSpan(first),
			Detail: &Detail{Certificate: rep.Certificate},
		}}
	case termination.ClassJA:
		cycle := posCycleNames(rep.WitnessCycle)
		d := Diagnostic{
			Code: "TM003", Severity: Info,
			Message: fmt.Sprintf("chase terminates: the theory is jointly acyclic, though not weakly acyclic (position cycle: %s)",
				strings.Join(cycle, " -> ")),
			Detail: &Detail{Cycle: cycle, Certificate: rep.Certificate},
		}
		if rep.Witness.Rule != nil {
			d.Rule = rep.Witness.Rule.Label
			d.Span = ruleSpan(rep.Witness.Rule)
		}
		return []Diagnostic{d}
	case termination.ClassSWA:
		cycle := evarCycleNames(rep.JACycle)
		d := Diagnostic{
			Code: "TM004", Severity: Info,
			Message: fmt.Sprintf("chase terminates on every instance (both variants): the critical-instance chase saturates in %d facts, though the theory is not jointly acyclic (dependency cycle: %s)",
				rep.Critical.Facts, strings.Join(cycle, " -> ")),
			Detail: &Detail{Cycle: cycle, Certificate: rep.Certificate},
		}
		if len(rep.JACycle) > 0 {
			r := ctx.Theory.Rules[rep.JACycle[0].Rule]
			d.Rule = r.Label
			d.Span = ruleSpan(r)
		}
		return []Diagnostic{d}
	}
	// No certificate. TM001 keeps its historical weak-acyclicity message;
	// TM005 adds the critical-instance rejection witness when the chase of
	// the all-star instance demonstrably loops on its own nulls.
	cycle := posCycleNames(rep.WitnessCycle)
	d := Diagnostic{
		Code: "TM001", Severity: Warning,
		Message: fmt.Sprintf("chase may not terminate: the theory is not weakly acyclic — value invention at %v feeds back into %v (cycle: %s)",
			rep.Witness.To, rep.Witness.From, strings.Join(cycle, " -> ")),
		Detail: &Detail{Cycle: cycle, Positions: []string{rep.Witness.From.String(), rep.Witness.To.String()}},
	}
	if rep.Witness.Rule != nil {
		d.Rule = rep.Witness.Rule.Label
		d.Span = ruleSpan(rep.Witness.Rule)
	}
	out := []Diagnostic{d}
	if rep.Critical != nil && len(rep.Critical.LineageCycle) > 0 {
		cyc := evarCycleNames(rep.Critical.LineageCycle)
		d5 := Diagnostic{
			Code: "TM005", Severity: Warning,
			Message: fmt.Sprintf("critical-instance chase mints nulls along a cycle of existential variables (%s): the chase is infinite on the all-star instance",
				strings.Join(cyc, " -> ")),
			Detail: &Detail{Cycle: cyc},
		}
		r := ctx.Theory.Rules[rep.Critical.LineageCycle[0].Rule]
		d5.Rule = r.Label
		d5.Span = ruleSpan(r)
		out = append(out, d5)
	}
	return out
}

// posCycleNames renders a position cycle deterministically.
func posCycleNames(ps []classify.Position) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}

// evarCycleNames renders an existential-variable cycle.
func evarCycleNames(vs []termination.EVar) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// ---------------------------------------------------------------------------
// small message helpers

func plural(names []string) string {
	if len(names) > 1 {
		return "s"
	}
	return ""
}

func singular(names []string) string {
	if len(names) > 1 {
		return ""
	}
	return "s"
}

func singularVerb(names []string) string { return singular(names) }

func isAre(names []string) string {
	if len(names) > 1 {
		return "are"
	}
	return "is"
}
