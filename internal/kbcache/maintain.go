package kbcache

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/kb"
)

// ErrNotMaintainable is returned by MaintainCQ when the query's cached
// plan falls back to a per-query bounded chase: such a plan would
// re-chase the full database on every batch, so subscriptions over it
// are rejected at registration instead of silently degrading.
var ErrNotMaintainable = errors.New("kbcache: query plan chases per call; not incrementally maintainable")

// BaseKey is the key of a KB's base view: the fixpoint of its compiled
// program. Plan keys start with "cq:" or "atom:", so it names no plan.
const BaseKey = "base"

// AnswerDelta is the net answer-set change of one maintenance batch,
// both sides deterministically sorted.
type AnswerDelta struct {
	Added   [][]core.Term
	Removed [][]core.Term
}

// MaintainedView is a program's fixpoint maintained incrementally over
// one mutable fact DB: the engine handle of a materialized view. A base
// view (key BaseKey) runs the KB's compiled program, dat(Σ), whose ground
// atoms are exactly Σ's (Theorem 3, Proposition 6), and any number of
// selectors read it. A plan view runs one CQ plan's dat(Σ∪q), and the
// plan's QAns selector reads it. Batches fold in through Apply. The
// handle is not safe for concurrent use: its owner serializes Apply, and
// concurrent readers share only the immutable Views it hands out.
type MaintainedView struct {
	ckb   *CompiledKB
	key   string
	chain []string
	m     *datalog.Maintained
}

// Key returns the view's key: BaseKey, or the plan key of a plan view.
func (mv *MaintainedView) Key() string { return mv.key }

// Apply folds a base-fact batch into the fixpoint and returns the net
// change of its fact set, which each selector of the view filters into
// its answer delta (Selector.Delta). On error the handle still holds the
// pre-batch fixpoint (the maintained database is only swapped on
// success).
func (mv *MaintainedView) Apply(add, retract []core.Atom, opts QueryOptions) (datalog.Delta, error) {
	_, delta, err := mv.m.Apply(add, retract, opts.datalogOptions(mv.ckb.metrics))
	if err != nil {
		return datalog.Delta{}, err
	}
	mv.ckb.metrics.MaintainBatches.Add(1)
	return delta, nil
}

// View returns the handle's current fixpoint as an immutable View. Later
// Apply calls do not change it.
func (mv *MaintainedView) View() *View {
	return &View{mv: mv, fix: mv.m.Current()}
}

// baseChain documents a base view's reads: the KB's compilation chain,
// then the filter.
func (ckb *CompiledKB) baseChain() []string {
	return append(slices.Clip(ckb.Chain),
		"base view: the query atom filtered from the compiled program's fixpoint, whose ground atoms are Σ's (Theorem 3 / Proposition 6)")
}

// Maintain builds the view sel reads, positioned at the fixpoint of
// base, over the plan Materialize would run: the KB's program for its
// base view, or the plan of sel's CQ, built (or reused) through the
// same per-shape plan cache as AnswerCQ. Plans that fall back to a
// per-query bounded chase are rejected with ErrNotMaintainable.
func (ckb *CompiledKB) Maintain(ctx context.Context, sel *Selector, base *database.Database, opts QueryOptions) (*MaintainedView, error) {
	p, _, err := ckb.planOf(ctx, sel, true)
	if err == nil && p.kind == planChase {
		err = fmt.Errorf("%w (plan %s)", ErrNotMaintainable, sel.view)
	}
	var m *datalog.Maintained
	if err == nil {
		m, err = datalog.NewMaintained(p.prog, base, opts.datalogOptions(ckb.metrics))
	}
	if err != nil {
		ckb.metrics.MaintainRejected.Add(1)
		return nil, err
	}
	ckb.metrics.MaintainedHandles.Add(1)
	return &MaintainedView{ckb: ckb, key: sel.view, chain: p.chain, m: m}, nil
}

// Materialize answers sel by evaluating the program of the view it
// reads over d, and on an exact run also returns that view's handle,
// positioned at the fixpoint that produced the answers, which the
// caller may keep and advance with Apply. A plan view's run is
// MaterializeCQ's. A base view's is an evaluation of the compiled
// program, counted as a plan hit: it was compiled at registration.
func (ckb *CompiledKB) Materialize(ctx context.Context, sel *Selector, d *database.Database, opts QueryOptions) (*QueryResult, *MaintainedView, error) {
	return ckb.read(ctx, sel, d, opts, true)
}

// MaintainedQuery is one CQ bound to the maintained view of its own
// plan: the view handle and the plan's QAns selector.
type MaintainedQuery struct {
	view *MaintainedView
	sel  *Selector
}

// MaintainCQ registers a conjunctive query for incremental maintenance
// over the base database, on the view of the query's own plan (see
// Maintain).
func (ckb *CompiledKB) MaintainCQ(ctx context.Context, q kb.CQ, base *database.Database, opts QueryOptions) (*MaintainedQuery, error) {
	sel := planSelector(q)
	mv, err := ckb.Maintain(ctx, sel, base, opts)
	if err != nil {
		return nil, err
	}
	return &MaintainedQuery{view: mv, sel: sel}, nil
}

// PlanKey returns the cache key of the underlying plan shape.
func (mq *MaintainedQuery) PlanKey() string { return mq.sel.planKey }

// Apply folds a base-fact batch into the maintained fixpoint and
// returns the net change of the query's answer set. On error the handle
// still holds the pre-batch answers.
func (mq *MaintainedQuery) Apply(add, retract []core.Atom, opts QueryOptions) (AnswerDelta, error) {
	d, err := mq.view.Apply(add, retract, opts)
	if err != nil {
		return AnswerDelta{}, err
	}
	return mq.sel.Delta(d), nil
}

// Answers returns the current exact answers of the maintained query,
// deterministically ordered.
func (mq *MaintainedQuery) Answers() [][]core.Term {
	return mq.view.View().Answers(mq.sel)
}

// Cached reports whether the store still caches the KB theoryID and,
// unless key is BaseKey, that KB's plan under key. The probe moves
// neither LRU's recency. A materialized view, or any other per-view
// state, whose KB or plan is no longer cached has outlived the caches
// that bound its memory.
func (s *Store) Cached(theoryID, key string) bool {
	ckb, ok := s.kbs.peek(theoryID)
	if ok && key != BaseKey {
		_, ok = ckb.plans.peek(key)
	}
	return ok
}

// PlansPerKB is the capacity of each KB's plan cache.
func (s *Store) PlansPerKB() int { return s.cfg.maxPlans() }

// View is a maintained view's fixpoint at one base version: a
// materialized view. It is immutable, so any number of readers share it
// without locks.
type View struct {
	mv  *MaintainedView // identity only: key and chain
	fix *database.Database
}

// Answers returns sel's exact answers at the view's version, ordered as
// AnswerCQ and AnswerAtom order them. sel must read this view.
func (v *View) Answers(sel *Selector) [][]core.Term { return sel.answers(v.fix) }

// Read answers sel as a plan-hit read that runs no engine: the result
// is AnswerCQ's (AnswerAtom's, for an atom selector) on the view's
// version, and the query and plan-hit counters move as that call's
// would.
func (v *View) Read(sel *Selector) *QueryResult {
	v.CountRead()
	return &QueryResult{Answers: v.Answers(sel), Exact: true, PlanKey: sel.planKey, PlanHit: true, Chain: v.mv.chain}
}

// CountRead counts one read served from the view as Read counts it, for
// a caller that serves the read from a response it kept.
func (v *View) CountRead() {
	m := v.mv.ckb.metrics
	m.Queries.Add(1)
	m.PlanHits.Add(1)
}
