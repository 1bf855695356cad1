package kbcache

import (
	"context"
	"errors"
	"fmt"
	"sync"

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

// AnswerDelta is the net answer-set change of one maintenance batch,
// both sides deterministically sorted.
type AnswerDelta struct {
	Added   [][]core.Term
	Removed [][]core.Term
}

// MaintainedQuery is a compiled CQ plan bound to an incrementally
// maintained fixpoint over one mutable fact DB: the engine handle of a
// materialized view. Batches fold in through Apply. The handle is not
// safe for concurrent use: its owner serializes Apply and the reads of
// the handle itself, and concurrent readers share only the immutable
// Views it hands out.
type MaintainedQuery struct {
	ckb      *CompiledKB
	key      string
	queryRel string
	chain    []string
	m        *datalog.Maintained
}

// MaintainCQ registers a conjunctive query for incremental maintenance
// over the base database: the CQ plan is built (or reused) through the
// same per-shape plan cache as AnswerCQ, classified once with the same
// PlanInfo probe the admission tier uses, and — when the plan compiles
// to a Datalog program — evaluated into a maintained fixpoint. Plans
// that fall back to a per-query bounded chase are rejected with
// ErrNotMaintainable.
func (ckb *CompiledKB) MaintainCQ(ctx context.Context, q kb.CQ, base *database.Database, opts QueryOptions) (*MaintainedQuery, error) {
	key := CQKey(q)
	p, _, err := ckb.getPlan(ctx, key, func(cctx context.Context) (*plan, error) { return ckb.buildCQPlan(cctx, q) })
	if err != nil {
		ckb.metrics.MaintainRejected.Add(1)
		return nil, err
	}
	// Classification happens exactly once, at registration, via the
	// admission tier's probe: the plan was interned by getPlan above, so
	// chasePerCall is the cached plan's verdict.
	if cached, chasePerCall := ckb.PlanInfo(key); !cached || chasePerCall {
		ckb.metrics.MaintainRejected.Add(1)
		return nil, fmt.Errorf("%w (plan %s)", ErrNotMaintainable, key)
	}
	m, err := datalog.NewMaintained(p.prog, base, opts.datalogOptions(ckb.metrics))
	if err != nil {
		ckb.metrics.MaintainRejected.Add(1)
		return nil, err
	}
	ckb.metrics.MaintainedHandles.Add(1)
	return &MaintainedQuery{ckb: ckb, key: key, queryRel: p.queryRel, chain: p.chain, m: m}, nil
}

// PlanKey returns the cache key of the underlying plan shape.
func (mq *MaintainedQuery) PlanKey() string { return mq.key }

// Chain documents how the underlying plan was built.
func (mq *MaintainedQuery) Chain() []string { return mq.chain }

// Apply folds a base-fact batch into the maintained fixpoint and
// returns the net change of the query's answer set. On error the handle
// still holds the pre-batch answers (the maintained database is only
// swapped on success).
func (mq *MaintainedQuery) Apply(add, retract []core.Atom, opts QueryOptions) (AnswerDelta, error) {
	_, delta, err := mq.m.Apply(add, retract, opts.datalogOptions(mq.ckb.metrics))
	if err != nil {
		return AnswerDelta{}, err
	}
	mq.ckb.metrics.MaintainBatches.Add(1)
	return AnswerDelta{
		Added:   answerTuples(delta.Added, mq.queryRel),
		Removed: answerTuples(delta.Removed, mq.queryRel),
	}, nil
}

// Answers returns the current exact answers of the maintained query,
// deterministically ordered.
func (mq *MaintainedQuery) Answers() [][]core.Term {
	return datalog.CollectAnswers(mq.m.Current(), mq.queryRel)
}

// View returns the handle's current fixpoint as an immutable View. Later
// Apply calls do not change it.
func (mq *MaintainedQuery) View() *View {
	return &View{mq: mq, fix: mq.m.Current()}
}

// Live reports whether the store still caches the KB the handle was
// built from, and that KB still caches the handle's plan. The probe
// moves neither LRU's recency. A materialized view over a handle that is
// not Live has outlived the caches that bound its memory.
func (s *Store) Live(mq *MaintainedQuery) bool {
	s.mu.Lock()
	ckb, ok := s.kbs.Peek(mq.ckb.ID)
	s.mu.Unlock()
	if !ok || ckb != mq.ckb {
		return false
	}
	ckb.planMu.Lock()
	defer ckb.planMu.Unlock()
	_, ok = ckb.plans.Peek(mq.key)
	return ok
}

// View is a maintained query's fixpoint at one base version: a
// materialized view. It is immutable, so any number of readers share it
// without locks. Its sorted answer list is collected on the first read
// and kept.
type View struct {
	mq  *MaintainedQuery // plan identity only: key, queryRel, chain
	fix *database.Database

	once    sync.Once
	answers [][]core.Term
}

// Answers returns the view's exact answers, ordered as AnswerCQ orders
// them. Callers must not modify the returned slices.
func (v *View) Answers() [][]core.Term {
	v.once.Do(func() { v.answers = datalog.CollectAnswers(v.fix, v.mq.queryRel) })
	return v.answers
}

// Read answers the view's query as a plan-hit CQ read that runs no
// engine: the result is AnswerCQ's on the view's version, and the
// query and plan-hit counters move as AnswerCQ's would. Callers must not
// modify the returned answers.
func (v *View) Read() *QueryResult {
	m := v.mq.ckb.metrics
	m.Queries.Add(1)
	m.PlanHits.Add(1)
	return &QueryResult{Answers: v.Answers(), Exact: true, PlanKey: v.mq.key, PlanHit: true, Chain: v.mq.chain}
}

// answerTuples projects a fact delta onto the query relation's
// all-constant tuples, sorted like every other answer list.
func answerTuples(facts []core.Atom, queryRel string) [][]core.Term {
	var out [][]core.Term
	for _, f := range facts {
		if f.Relation != queryRel {
			continue
		}
		allConst := true
		for _, t := range f.Args {
			if !t.IsConst() {
				allConst = false
				break
			}
		}
		if allConst {
			out = append(out, append([]core.Term(nil), f.Args...))
		}
	}
	sortTuples(out)
	return out
}
