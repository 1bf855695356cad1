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

// MaintainedQuery is a registered live query: a compiled CQ plan bound
// to an incrementally maintained fixpoint over one mutable fact DB.
// Batches fold in through Apply; the current exact answers are always
// available. The handle is safe for concurrent use (one internal
// writer lock; the serving layer applies batches under it while
// concurrent readers snapshot answers).
type MaintainedQuery struct {
	ckb      *CompiledKB
	key      string
	queryRel string
	chain    []string

	mu sync.Mutex
	m  *datalog.Maintained
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
	mq.mu.Lock()
	defer mq.mu.Unlock()
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
	mq.mu.Lock()
	cur := mq.m.Current()
	mq.mu.Unlock()
	return datalog.CollectAnswers(cur, mq.queryRel)
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
