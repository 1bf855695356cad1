package kbcache

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/kb"
	"guardedrules/internal/parser"
	"guardedrules/internal/saturate"
	"guardedrules/internal/termination"
)

// planKind says how a cached plan evaluates.
type planKind int

const (
	// planProgram: evaluate a compiled Datalog program and collect the
	// plan's query relation. Exact.
	planProgram planKind = iota
	// planMagic: seed a compiled magic-sets program with the query's
	// bound constants and collect the adorned query relation. Exact, and
	// goal-directed.
	planMagic
	// planChase: chase the attached theory per call. Sound; exact iff
	// the chase saturates.
	planChase
	// planFacts: no rule derives the query relation, so the database's
	// facts are its fixpoint facts. Exact, and runs no engine.
	planFacts
)

// plan is a cached per-query-shape evaluation artifact: everything whose
// cost depends only on (Σ, query shape) — attaching, translating, magic
// rewriting, stratifying, compiling — done once. Plans are immutable and
// shared across concurrent queries.
type plan struct {
	kind     planKind
	prog     *datalog.Program // planProgram, planMagic
	seedRel  string           // planMagic: the magic seed relation
	queryRel string           // relation whose tuples are the answers
	attached *core.Theory     // planChase: Σ ∪ {query rule}
	chain    []string         // how the plan was built, for diagnostics

	// Certified-termination routing (planChase only): when the attached
	// theory carries a termination certificate, default queries run the
	// chase to saturation with no fact ceiling. class is the certified
	// class; bound prices the ceiling for weakly acyclic theories (nil
	// when the certificate proves finiteness without pricing it).
	certified bool
	class     termination.Class
	bound     *termination.Bound
}

// QueryOptions governs one answer call.
type QueryOptions struct {
	// Variant selects the chase flavor for chase-mode plans; the zero
	// value is Oblivious.
	Variant chase.Variant
	// MaxDepth bounds chase-mode null depth (0 = the store's
	// DefaultChaseDepth when no budget bounds the run either).
	MaxDepth int
	// Budget, when non-nil, governs the evaluation; exhausting it yields
	// the sound partial answers alongside a typed *budget.Error.
	Budget *budget.T
}

// datalogOptions derives the engine options of one evaluation, wiring
// the store's join-planner counters into the run.
func (o QueryOptions) datalogOptions(m *Metrics) datalog.Options {
	opts := datalog.Options{Budget: o.Budget}
	if m != nil {
		opts.Stats = &m.Join
	}
	return opts
}

// QueryResult is the outcome of one answer call.
type QueryResult struct {
	// Answers holds one tuple per answer, deterministically ordered.
	Answers [][]core.Term
	// Exact reports completeness: translated and Datalog plans are exact
	// unless a budget truncated the run; chase plans are exact exactly
	// when the chase saturated.
	Exact bool
	// PlanKey identifies the plan that served the call.
	PlanKey string
	// PlanHit reports whether the plan came from the cache — no
	// translation or compilation work was performed by this call.
	PlanHit bool
	// Chain documents how the plan was built.
	Chain []string
}

// CQKey is the cache key of a conjunctive query's shape.
func CQKey(q kb.CQ) string {
	var b strings.Builder
	b.WriteString("cq:")
	for i, t := range q.Answer {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(t.String())
	}
	b.WriteString("<-")
	for i, a := range q.Atoms {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(parser.PrintAtom(a))
	}
	return b.String()
}

// AtomKey is the cache key of an atomic query's shape: its relation and
// binding pattern (adornment), so T(a,Y) and T(b,Y) share a plan while
// T(X,Y) gets its own.
func AtomKey(query core.Atom) string {
	return "atom:" + query.Relation + "/" + datalog.Adornment(query)
}

// getPlan returns the plan cached under key, building it on first use
// (see cache).
func (ckb *CompiledKB) getPlan(ctx context.Context, key string, build func(ctx context.Context) (*plan, error)) (*plan, bool, error) {
	return ckb.plans.intern(ctx, key, &ckb.metrics.PlanMisses, build)
}

// PlanInfo probes the plan cache under key for admission control:
// cached reports whether a plan is interned (a miss means the next
// query pays combined-complexity build work), and chasePerCall whether
// the cached plan re-chases the theory on every evaluation (expensive
// even on a hit). The probe touches LRU recency, which is harmless: a
// probed plan is about to be used.
func (ckb *CompiledKB) PlanInfo(key string) (cached, chasePerCall bool) {
	p, ok := ckb.plans.get(key)
	return ok, ok && p.kind == planChase
}

// AnswerCQ answers the conjunctive query over the database with the
// KB's cached plan for the query's shape, building it on first use:
// attach the query rule (Section 7), translate the attached theory along
// the fragment-appropriate chain, stratify and compile — or fall back to
// a bounded chase where no complete translation exists. On budget
// exhaustion the sound partial answers are returned alongside the typed
// *budget.Error.
func (ckb *CompiledKB) AnswerCQ(ctx context.Context, q kb.CQ, d *database.Database, opts QueryOptions) (*QueryResult, error) {
	res, _, err := ckb.read(ctx, planSelector(q), d, opts, false)
	return res, err
}

// MaterializeCQ answers like AnswerCQ and also returns the materialized
// view of the run: when the plan compiles to a Datalog program and the
// run is exact, the plan view's handle positioned at the fixpoint that
// produced the answers, which the caller may keep and advance with
// Apply. Otherwise the handle is nil.
func (ckb *CompiledKB) MaterializeCQ(ctx context.Context, q kb.CQ, d *database.Database, opts QueryOptions) (*QueryResult, *MaintainedView, error) {
	return ckb.read(ctx, planSelector(q), d, opts, true)
}

// Read answers sel over d and keeps no view. A plan selector's read is
// AnswerCQ's. A base-view selector filters the answers of the KB's atom
// plan for its pattern (AtomKey): dat(Σ) has Σ's ground atoms (Theorem 3
// / Proposition 6), so a single-atom CQ needs no dat(Σ∪q) plan.
func (ckb *CompiledKB) Read(ctx context.Context, sel *Selector, d *database.Database, opts QueryOptions) (*QueryResult, error) {
	res, _, err := ckb.read(ctx, sel, d, opts, false)
	return res, err
}

// read is every engine read of the KB: it evaluates the plan planOf
// picks for sel and selects sel's answers from the run. With keep set,
// an exact run of a program plan also returns the view it computed.
func (ckb *CompiledKB) read(ctx context.Context, sel *Selector, d *database.Database, opts QueryOptions, keep bool) (*QueryResult, *MaintainedView, error) {
	ckb.metrics.Queries.Add(1)
	p, hit, err := ckb.planOf(ctx, sel, keep)
	if err != nil {
		ckb.metrics.QueryErrors.Add(1)
		return nil, nil, err
	}
	res, m, err := ckb.eval(p, sel, d, opts, keep)
	if res != nil {
		res.PlanKey, res.PlanHit = sel.planKey, hit
	}
	var mv *MaintainedView
	if m != nil {
		mv = &MaintainedView{ckb: ckb, key: sel.view, chain: p.chain, m: m}
	}
	return res, mv, err
}

// planOf returns the plan that evaluates sel, and whether it was cached:
// the plan of sel's CQ for a plan view. A base view's plan is the KB's
// program, compiled at registration, when the caller keeps the view it
// computes, and otherwise the atom plan of sel's pattern: the base
// fixpoint can dwarf the goal-directed one.
func (ckb *CompiledKB) planOf(ctx context.Context, sel *Selector, keep bool) (*plan, bool, error) {
	switch {
	case sel.view != BaseKey:
		return ckb.getPlan(ctx, sel.view, func(cctx context.Context) (*plan, error) { return ckb.buildCQPlan(cctx, sel.q) })
	case keep:
		ckb.metrics.PlanHits.Add(1)
		return &plan{kind: planProgram, prog: ckb.program, queryRel: sel.rel.Name, chain: ckb.baseChain()}, true, nil
	default:
		return ckb.getPlan(ctx, sel.planKey, func(context.Context) (*plan, error) {
			return ckb.buildAtomPlan(core.NewAtom(sel.rel.Name, sel.args...))
		})
	}
}

// eval runs p over d and selects sel's answers from the run's fixpoint,
// where the plan's query relation holds them: a fact plan selects from
// d itself, a magic plan from a run seeded with sel's constants (its
// program depends only on the binding pattern), a program plan from its
// run, and a chase plan from the chase. With keep set, an exact program
// run also returns its maintained fixpoint. A budget-truncated run
// returns its sound partial answers alongside the typed error.
func (ckb *CompiledKB) eval(p *plan, sel *Selector, d *database.Database, opts QueryOptions, keep bool) (*QueryResult, *datalog.Maintained, error) {
	var (
		fix   = d
		exact = true
		m     *datalog.Maintained
		err   error
	)
	switch p.kind {
	case planMagic:
		var bound []core.Term
		for _, t := range sel.args {
			if t.IsConst() {
				bound = append(bound, t)
			}
		}
		fix, err = p.prog.EvalSeeded(d, []core.Atom{core.NewAtom(p.seedRel, bound...)}, opts.datalogOptions(ckb.metrics))
	case planProgram:
		if keep {
			m, fix, err = datalog.EvalMaintained(p.prog, d, opts.datalogOptions(ckb.metrics))
		} else {
			fix, err = p.prog.Eval(d, opts.datalogOptions(ckb.metrics))
		}
	case planChase:
		var res *chase.Result
		res, err = ckb.runChase(p, d, opts)
		fix = nil
		if res != nil {
			fix, exact = res.DB, res.Saturated
		}
	}
	if err != nil && (fix == nil || !budget.IsBudget(err)) {
		ckb.metrics.QueryErrors.Add(1)
		return nil, nil, err
	}
	goal := *sel
	goal.rel.Name = p.queryRel
	res := &QueryResult{Answers: goal.answers(fix), Exact: exact && err == nil, Chain: p.chain}
	if err != nil {
		ckb.metrics.BudgetExhausted.Add(1)
	}
	return res, m, err
}

// runChase chases a chase plan's attached theory over d, certified
// unless the caller asked for a real ceiling: a context or timeout is
// cancellation, not a bound, and RunCertified honors it. A certified run
// has no fact ceiling: the termination certificate proves the fixpoint
// finite, so the answer is always exact. WA and JA certificates cover the
// restricted variant only (the fresh-null oblivious chase can diverge on
// them), so those runs are forced to chase.Restricted — sound and
// complete regardless of the requested variant, because every saturated
// chase is a universal model and QAns answers are ground. For weakly
// acyclic theories the certificate also prices an exact fact bound,
// which the run asserts; when the closed form overflows the run is
// merely unpriced, not bounded.
func (ckb *CompiledKB) runChase(p *plan, d *database.Database, opts QueryOptions) (*chase.Result, error) {
	copts := chase.Options{Variant: opts.Variant, MaxDepth: opts.MaxDepth, Budget: opts.Budget}
	if copts.MaxDepth == 0 && p.certified && !bounding(copts.Budget) {
		if p.class != termination.ClassSWA {
			copts.Variant = chase.Restricted
		}
		bound := 0
		if p.bound != nil {
			n0 := d.InternEpoch() + len(p.attached.Constants())
			if b, ok := p.bound.Facts(n0, d.Len()); ok {
				bound = b
			}
		}
		ckb.metrics.CertifiedRuns.Add(1)
		return chase.RunCertified(p.attached, d, bound, copts)
	}
	if copts.MaxDepth == 0 && copts.Budget == nil {
		copts.MaxDepth = ckb.cfg.chaseDepth()
	}
	return chase.Run(p.attached, d, copts)
}

// bounding reports whether the budget imposes an actual work ceiling —
// a context or timeout alone is cancellation and leaves certified
// serving eligible.
func bounding(b *budget.T) bool {
	return b != nil && (b.MaxFacts > 0 || b.MaxRules > 0 || b.MaxRounds > 0 || b.MaxSteps > 0 || b.FailAtCheckpoint > 0)
}

// buildCQPlan is the pay-once part of a CQ: Σ ∪ {α ∧ ACDom(~x) → QAns(~x)}
// translated and compiled per the KB's mode.
func (ckb *CompiledKB) buildCQPlan(ctx context.Context, q kb.CQ) (*plan, error) {
	attached, err := kb.Attach(ckb.Theory, q)
	if err != nil {
		return nil, err
	}
	switch ckb.Mode {
	case ModeDatalog:
		prog, err := datalog.Compile(attached)
		if err != nil {
			return nil, err
		}
		return &plan{
			kind:     planProgram,
			prog:     prog,
			queryRel: kb.QueryRel,
			chain:    []string{"query rule attached; stratified and compiled with the source program"},
		}, nil
	case ModeTranslated:
		return ckb.buildTranslatedCQPlan(ctx, attached)
	default:
		return ckb.buildChasePlan(attached, "query rule attached; bounded chase per call"), nil
	}
}

// buildChasePlan builds a per-call chase plan over the attached theory,
// promoting it to certified (budget-free) serving when the attached
// theory carries a termination certificate. The analysis runs on Σ ∪
// {query rule}, not Σ: the query rule's QAns positions are pure sinks,
// so a certified Σ stays certified, but re-deriving the certificate on
// the theory that is actually chased keeps the routing honest.
func (ckb *CompiledKB) buildChasePlan(attached *core.Theory, why string) *plan {
	p := &plan{
		kind:     planChase,
		attached: attached,
		queryRel: kb.QueryRel,
		chain:    []string{why},
	}
	rep := termination.Analyze(attached)
	if rep.Class.Terminating() {
		p.certified = true
		p.class = rep.Class
		p.bound = rep.Bound
		p.chain = append(p.chain, fmt.Sprintf(
			"termination certificate (class %s): default calls chase to saturation, budget-free", rep.Class))
	}
	return p
}

// buildTranslatedCQPlan translates the attached theory to Datalog when
// the query rule keeps it inside a translatable fragment, and falls back
// to a per-call chase when it does not (or when the translation budget
// aborts): the fallback is sound, merely not compiled.
func (ckb *CompiledKB) buildTranslatedCQPlan(ctx context.Context, attached *core.Theory) (*plan, error) {
	rep := classify.Classify(attached)
	if !rep.Member[classify.NearlyGuarded] && !rep.Member[classify.NearlyFrontierGuarded] {
		return ckb.buildChasePlan(attached, "query rule leaves the translatable fragments; bounded chase per call"), nil
	}
	t, err := translate(ckb.baseClosure, attached, rep, "Σ∪q", ckb.cfg.translateBudget(ctx))
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// Cancellation is not a verdict on the plan: nothing is cached,
			// the next request rebuilds with live interest.
			return nil, fmt.Errorf("kbcache: plan build canceled: %w", err)
		}
		return ckb.buildChasePlan(attached, "translation aborted ("+err.Error()+"); bounded chase per call"), nil
	}
	chain, base := []string{"query rule attached (stays nearly guarded)"}, "Ξ(Σ)"
	if t.ng != nil {
		chain, base = []string{"query rule attached (stays nearly frontier-guarded)", "rew(Σ∪q) (Theorem 1)"}, "Ξ(rew(Σ))"
	}
	ckb.metrics.Translations.Add(1)
	if t.st.Resumed {
		ckb.metrics.SaturationsResumed.Add(1)
		chain = append(chain, fmt.Sprintf("%s resumed from %s (+%d rules)", t.step, base, t.st.ClosureRules-t.st.BaseRules))
	} else {
		ckb.metrics.SaturationsFull.Add(1)
		why := t.st.FreshReason
		if why == "" {
			why = "no frozen " + base
		}
		chain = append(chain, fmt.Sprintf("%s saturated from scratch (%s)", t.step, why))
	}
	prog, err := datalog.Compile(t.dat)
	if err != nil {
		return nil, err
	}
	return &plan{kind: planProgram, prog: prog, queryRel: kb.QueryRel, chain: chain}, nil
}

// baseClosure returns the KB's frozen Ξ for cold plans to extend. A KB
// restored from an artifact has none until its first cold plan: that
// plan saturates Σ (or rew(Σ)) once here, and the KB keeps the result.
// Nil means no base is available (the build failed or was cut short);
// the plan then saturates from scratch.
func (ckb *CompiledKB) baseClosure(bud *budget.T) *saturate.Closure {
	ckb.closureMu.Lock()
	defer ckb.closureMu.Unlock()
	if ckb.closure == nil {
		if t, err := translate(nil, ckb.Theory, ckb.Class, "Σ", bud); err == nil {
			ckb.metrics.SaturationsFull.Add(1)
			ckb.closure = t.cl
		}
	}
	return ckb.closure
}

// AnswerAtom answers an atomic query — a single atom whose constants are
// bound and whose variables are free — returning full argument tuples.
// Program-mode KBs read it through its atom selector (Read); chase-mode
// KBs delegate to the CQ path.
func (ckb *CompiledKB) AnswerAtom(ctx context.Context, query core.Atom, d *database.Database, opts QueryOptions) (*QueryResult, error) {
	if sel := ckb.AtomSelector(query); sel != nil {
		return ckb.Read(ctx, sel, d, opts)
	}
	return ckb.answerAtomByCQ(ctx, query, d, opts)
}

// buildAtomPlan builds the plan of the query's binding pattern from the
// cone of base rules its relation depends on: the cone's magic-sets
// rewriting where a position is bound and magic applies, else the cone.
// Unbound, magic sets have no constant to pass sideways, and re-derive
// the cone, recursive relations twice. An empty cone needs no program.
func (ckb *CompiledKB) buildAtomPlan(query core.Atom) (*plan, error) {
	th := ckb.program.Theory()
	cone := th
	if query.Relation != core.ACDom {
		cone = datalog.Cone(th, query.Relation)
	}
	if len(cone.Rules) == 0 {
		return &plan{kind: planFacts, queryRel: query.Relation, chain: []string{"no rule derives " + query.Relation + "; read from the database's facts"}}, nil
	}
	why := "no bound position"
	if adornment := datalog.Adornment(query); strings.Contains(adornment, "b") {
		mr, err := datalog.MagicRewrite(cone, query)
		if err == nil {
			prog, err := datalog.Compile(mr.Program)
			if err != nil {
				return nil, err
			}
			return &plan{
				kind:     planMagic,
				prog:     prog,
				seedRel:  mr.Seed.Relation,
				queryRel: mr.QueryRel,
				chain:    []string{"magic-sets rewriting for adornment " + adornment + "; compiled"},
			}, nil
		}
		why = "magic rewriting not applicable (" + err.Error() + ")"
	}
	prog := ckb.program
	if len(cone.Rules) < len(th.Rules) {
		var err error
		if prog, err = datalog.Compile(cone); err != nil {
			return nil, err
		}
	}
	return &plan{
		kind:     planProgram,
		prog:     prog,
		queryRel: query.Relation,
		chain:    []string{fmt.Sprintf("%s; evaluates the %d of %d base rules %s depends on", why, len(cone.Rules), len(th.Rules), query.Relation)},
	}, nil
}

// answerAtomByCQ routes an atomic query through the CQ path (chase-mode
// KBs), reconstructing full argument tuples from the answer bindings.
func (ckb *CompiledKB) answerAtomByCQ(ctx context.Context, query core.Atom, d *database.Database, opts QueryOptions) (*QueryResult, error) {
	var vars []core.Term
	seen := map[core.Term]bool{}
	for _, t := range query.Args {
		if t.IsVar() && !seen[t] {
			seen[t] = true
			vars = append(vars, t)
		}
	}
	res, err := ckb.AnswerCQ(ctx, kb.CQ{Answer: vars, Atoms: []core.Atom{query}}, d, opts)
	if res == nil {
		return nil, err
	}
	full := make([][]core.Term, 0, len(res.Answers))
	for _, binding := range res.Answers {
		s := core.Subst{}
		for i, v := range vars {
			s[v] = binding[i]
		}
		tuple := make([]core.Term, len(query.Args))
		for i, t := range query.Args {
			tuple[i] = s.Apply(t)
		}
		full = append(full, tuple)
	}
	datalog.SortTuples(full)
	res.Answers = full
	return res, err
}
