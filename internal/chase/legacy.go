package chase

import (
	"fmt"
	"strings"
	"sync"

	"guardedrules/internal/budget"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/hom"
)

// This file keeps the previous term-space chase engine as a reference
// implementation for the differential suite (idspace_diff_test.go): the
// id-space engine must produce byte-identical results on databases with
// benign constant names. The engine is retained verbatim except for two
// bug fixes applied to both engines — the Rounds off-by-one and the
// MaxFacts overshoot — and the hook signature shared with RunTree /
// RunWithProvenance. Its name-serialized trigger key still carries the
// collision bug (see legacyTriggerKey); triggerkey_regression_test.go
// demonstrates the resulting under-derivation.

// legacyTrigger is a rule paired with a body homomorphism.
type legacyTrigger struct {
	rule *core.Rule
	sub  core.Subst
}

// legacyEngine carries the mutable state of a legacy run.
type legacyEngine struct {
	opts       Options
	db         *database.Database
	depth      map[core.Term]int
	applied    map[string]bool // oblivious-mode trigger memo
	nulls      int
	steps      int
	trunc      bool
	overBudget bool
	reason     error // budget sentinel recorded at the first truncation
	maxFacts   int
	// Precomputed per rule: a numeric id and the sorted universal
	// variables, so trigger keys are built without sorting or fmt.
	ruleID   map[*core.Rule]int
	ruleVars map[*core.Rule][]core.Term
	hook     hookFn
}

// legacyRun is the term-space reference chase; same contract as Run.
func legacyRun(th *core.Theory, d0 *database.Database, opts Options, hook hookFn) (*Result, error) {
	if err := th.CheckSafe(); err != nil {
		return nil, fmt.Errorf("chase: %w", err)
	}
	e := &legacyEngine{
		opts:     opts,
		db:       d0.Clone(),
		depth:    make(map[core.Term]int),
		applied:  make(map[string]bool),
		hook:     hook,
		ruleID:   make(map[*core.Rule]int, len(th.Rules)),
		ruleVars: make(map[*core.Rule][]core.Term, len(th.Rules)),
	}
	for i, r := range th.Rules {
		e.ruleID[r] = i
		keep := r.UVars()
		for _, l := range r.Body {
			keep.AddAll(l.Atom.AnnVars())
		}
		e.ruleVars[r] = keep.Sorted()
	}
	bud := opts.Budget
	tk := budget.Start(bud)
	defer tk.Stop()
	e.maxFacts = budget.Cap(bud, func(b *budget.T) int { return b.MaxFacts }, opts.maxFacts())
	maxRounds := budget.Cap(bud, func(b *budget.T) int { return b.MaxRounds }, opts.maxRounds())
	maxSteps := 0
	budFacts, budRounds := false, false
	if bud != nil {
		maxSteps = bud.MaxSteps
		budFacts = bud.MaxFacts > 0
		budRounds = bud.MaxRounds > 0
	}

	res := &Result{Depth: e.depth}
	finish := func(err error) (*Result, error) {
		res.DB = e.db
		res.Steps = e.steps
		res.Truncated = e.trunc
		res.Saturated = !e.trunc
		res.Reason = e.reason
		res.Usage = tk.Usage()
		return res, err
	}
	delta := e.db.UserFacts()
	for first := true; ; first = false {
		tk.SetRounds(res.Rounds)
		if err := tk.Check(); err != nil {
			e.truncate(reasonOf(err))
			return finish(err)
		}
		if res.Rounds >= maxRounds {
			e.truncate(budget.ErrRoundLimit)
			if budRounds {
				return finish(tk.Exhausted(budget.ErrRoundLimit))
			}
			break
		}
		trs := e.collect(th, delta, first)
		if len(trs) == 0 {
			break
		}
		var newFacts []core.Atom
		counted := false
		for _, tr := range trs {
			if err := tk.Check(); err != nil {
				e.truncate(reasonOf(err))
				return finish(err)
			}
			if e.db.Len() >= e.maxFacts {
				e.truncate(budget.ErrFactLimit)
				if budFacts {
					return finish(tk.Exhausted(budget.ErrFactLimit))
				}
				e.overBudget = true
				break
			}
			if maxSteps > 0 && e.steps >= maxSteps {
				e.truncate(budget.ErrStepLimit)
				return finish(tk.Exhausted(budget.ErrStepLimit))
			}
			added, fired, err := e.apply(tr)
			if err != nil {
				return finish(fmt.Errorf("chase: %w", err))
			}
			tk.AddFacts(len(added))
			tk.AddSteps(1)
			if fired && !counted {
				counted = true
				res.Rounds++
			}
			newFacts = append(newFacts, added...)
			if e.overBudget {
				if budFacts {
					return finish(tk.Exhausted(budget.ErrFactLimit))
				}
				break
			}
		}
		if e.overBudget || len(newFacts) == 0 {
			break
		}
		delta = newFacts
	}
	return finish(nil)
}

func (e *legacyEngine) truncate(reason error) {
	e.trunc = true
	if e.reason == nil {
		e.reason = reason
	}
}

// collect gathers the applicable triggers for this round: candidates are
// found per rule (in parallel when Options.Workers > 1), then merged in
// rule order with global deduplication and admissibility checks.
func (e *legacyEngine) collect(th *core.Theory, delta []core.Atom, first bool) []legacyTrigger {
	deltaDB := database.FromAtoms(delta)
	perRule := make([][]legacyTrigger, len(th.Rules))
	workers := e.opts.workers()
	if workers > 1 && len(th.Rules) > 1 {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i, r := range th.Rules {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, r *core.Rule) {
				defer wg.Done()
				defer func() { <-sem }()
				perRule[i] = e.collectRule(r, deltaDB, first)
			}(i, r)
		}
		wg.Wait()
	} else {
		for i, r := range th.Rules {
			perRule[i] = e.collectRule(r, deltaDB, first)
		}
	}
	var out []legacyTrigger
	seen := make(map[string]bool)
	for _, trs := range perRule {
		for _, tr := range trs {
			k := e.triggerKey(tr)
			if seen[k] {
				continue
			}
			seen[k] = true
			if e.admissible(tr, k) {
				out = append(out, tr)
			}
		}
	}
	return out
}

func (e *legacyEngine) collectRule(r *core.Rule, deltaDB *database.Database, first bool) []legacyTrigger {
	var out []legacyTrigger
	body := r.PositiveBody()
	emit := func(s core.Subst) bool {
		for _, l := range r.Body {
			if l.Negated && e.db.Has(s.ApplyAtom(l.Atom)) {
				return true
			}
		}
		out = append(out, legacyTrigger{rule: r, sub: restrictToRule(s, r, e.ruleVars[r])})
		return true
	}
	if first || len(body) == 0 {
		if len(body) == 0 {
			if first {
				emit(core.Subst{})
			}
			return out
		}
		hom.ForEach(body, e.db, nil, emit)
		return out
	}
	for i, b := range body {
		rest := make([]core.Atom, 0, len(body)-1)
		rest = append(rest, body[:i]...)
		rest = append(rest, body[i+1:]...)
		hom.ForEach([]core.Atom{b}, deltaDB, nil, func(s core.Subst) bool {
			hom.ForEach(rest, e.db, s, emit)
			return true
		})
	}
	return out
}

func (e *legacyEngine) admissible(tr legacyTrigger, key string) bool {
	if e.applied[key] {
		return false
	}
	if e.opts.Variant == Restricted && e.headSatisfied(tr) {
		return false
	}
	if len(tr.rule.Exist) > 0 && e.opts.MaxDepth > 0 {
		d := 0
		for _, t := range tr.sub {
			if dd, ok := e.depth[t]; ok && dd > d {
				d = dd
			}
		}
		if d+1 > e.opts.MaxDepth {
			e.truncate(budget.ErrDepthLimit)
			return false
		}
	}
	return true
}

func (e *legacyEngine) headSatisfied(tr legacyTrigger) bool {
	init := core.Subst{}
	ev := tr.rule.EVarSet()
	for v, t := range tr.sub {
		if !ev.Has(v) {
			init[v] = t
		}
	}
	return hom.Exists(tr.rule.Head, e.db, init)
}

func (e *legacyEngine) apply(tr legacyTrigger) ([]core.Atom, bool, error) {
	key := e.triggerKey(tr)
	if e.applied[key] {
		return nil, false, nil
	}
	if e.opts.Variant == Restricted && e.headSatisfied(tr) {
		e.applied[key] = true
		return nil, false, nil
	}
	e.applied[key] = true
	s := tr.sub.Clone()
	base := 0
	for _, t := range s {
		if d, ok := e.depth[t]; ok && d > base {
			base = d
		}
	}
	for _, v := range tr.rule.Exist {
		e.nulls++
		n := core.NewNull(fmt.Sprintf("n%d", e.nulls))
		e.depth[n] = base + 1
		s[v] = n
	}
	e.steps++
	var added []core.Atom
	note := func(f core.Atom) { added = append(added, f) }
	for _, h := range tr.rule.Head {
		a := s.ApplyAtom(h)
		if e.db.Len()+e.db.AddCost(a) > e.maxFacts {
			e.truncate(budget.ErrFactLimit)
			e.overBudget = true
			break
		}
		isNew, err := e.db.AddNotify(a, note)
		if err != nil {
			return added, true, fmt.Errorf("rule %s: %w", tr.rule.Label, err)
		}
		if isNew && e.hook != nil {
			e.hook(tr.rule, tr.sub, a)
		}
	}
	return added, true, nil
}

// restrictToRule keeps only the bindings of the rule's own variables
// (hom search may receive init substitutions carrying more).
func restrictToRule(s core.Subst, r *core.Rule, vars []core.Term) core.Subst {
	out := make(core.Subst, len(vars))
	for _, v := range vars {
		if t, ok := s[v]; ok {
			out[v] = t
		}
	}
	return out
}

// legacyTriggerKey (kept under its historical method name) identifies a
// (rule, homomorphism) pair by serializing variable images as
// kind-byte + name + NUL. The serialization is ambiguous: a NUL byte
// followed by a kind character inside a constant name makes two distinct
// homomorphisms produce the same key, so one of the two triggers is
// silently dropped — the bug the id-space trigger set fixes.
func (e *legacyEngine) triggerKey(tr legacyTrigger) string {
	var sb strings.Builder
	sb.WriteByte(byte(e.ruleID[tr.rule]))
	sb.WriteByte(byte(e.ruleID[tr.rule] >> 8))
	sb.WriteByte(byte(e.ruleID[tr.rule] >> 16))
	for _, v := range e.ruleVars[tr.rule] {
		t := tr.sub[v]
		sb.WriteByte(byte('0' + t.Kind))
		sb.WriteString(t.Name)
		sb.WriteByte(0)
	}
	return sb.String()
}
