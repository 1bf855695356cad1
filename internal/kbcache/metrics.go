package kbcache

import (
	"sync/atomic"

	"guardedrules/internal/datalog"
	"guardedrules/internal/termination"
)

// Metrics counts the cache and query activity of a Store. All counters
// are atomic; a Store and every CompiledKB it serves share one instance.
type Metrics struct {
	// Compile-path counters (Store.Register).
	CompileHits   atomic.Int64 // served from the KB cache
	CompileMisses atomic.Int64 // actually compiled
	CompileDedup  atomic.Int64 // waited on a concurrent identical compile
	CompileErrors atomic.Int64 // compilation failed
	KBEvictions   atomic.Int64 // compiled KBs dropped by the LRU
	ArtifactLoads atomic.Int64 // KBs restored from persisted artifacts (saturation skipped)

	// Plan-path counters (per-KB query plan cache).
	PlanHits      atomic.Int64 // query reused a cached plan
	PlanMisses    atomic.Int64 // query built a fresh plan
	PlanEvictions atomic.Int64 // plans dropped by the LRU
	Translations  atomic.Int64 // rewrite/saturation chains actually run

	// Saturation counters: runs of the dat(Σ) saturation that started
	// from scratch, and cold CQ plans that extended a KB's frozen Ξ(Σ).
	SaturationsFull    atomic.Int64
	SaturationsResumed atomic.Int64

	// Query counters.
	Queries         atomic.Int64 // answer requests served
	QueryErrors     atomic.Int64 // requests that failed outright
	BudgetExhausted atomic.Int64 // requests truncated by a budget ceiling
	CertifiedRuns   atomic.Int64 // budget-free chases under a termination certificate

	// Termination-class counters: compiled KBs by the tightest class the
	// analyzer certified at registration.
	TerminationWA      atomic.Int64
	TerminationJA      atomic.Int64
	TerminationSWA     atomic.Int64
	TerminationUnknown atomic.Int64

	// Maintenance counters (Maintain, MaintainCQ, MaintainedView.Apply).
	// A caller that keeps a handle Materialize or MaterializeCQ returned
	// counts it itself.
	MaintainedHandles atomic.Int64 // maintained fixpoints kept (subscriptions and views)
	MaintainBatches   atomic.Int64 // mutation batches folded into maintained fixpoints
	MaintainRejected  atomic.Int64 // registrations refused (unmaintainable plan or build error)

	// Join holds the Datalog engine's join-planner counter (plans
	// computed) for every evaluation this store served.
	Join datalog.JoinStats
}

// countTermination buckets a freshly compiled KB by certified class.
func (m *Metrics) countTermination(c termination.Class) {
	switch c {
	case termination.ClassWA:
		m.TerminationWA.Add(1)
	case termination.ClassJA:
		m.TerminationJA.Add(1)
	case termination.ClassSWA:
		m.TerminationSWA.Add(1)
	default:
		m.TerminationUnknown.Add(1)
	}
}

// Snapshot renders the counters as a flat map, for /metrics endpoints
// and tests.
func (m *Metrics) Snapshot() map[string]int64 {
	return map[string]int64{
		"compile_hits":              m.CompileHits.Load(),
		"compile_misses":            m.CompileMisses.Load(),
		"compile_dedup":             m.CompileDedup.Load(),
		"compile_errors":            m.CompileErrors.Load(),
		"kb_evictions":              m.KBEvictions.Load(),
		"artifact_loads":            m.ArtifactLoads.Load(),
		"plan_hits":                 m.PlanHits.Load(),
		"plan_misses":               m.PlanMisses.Load(),
		"plan_evictions":            m.PlanEvictions.Load(),
		"translations":              m.Translations.Load(),
		"saturations_full":          m.SaturationsFull.Load(),
		"saturations_resumed":       m.SaturationsResumed.Load(),
		"queries":                   m.Queries.Load(),
		"query_errors":              m.QueryErrors.Load(),
		"budget_exhausted":          m.BudgetExhausted.Load(),
		"certified_runs":            m.CertifiedRuns.Load(),
		"termination_class_wa":      m.TerminationWA.Load(),
		"termination_class_ja":      m.TerminationJA.Load(),
		"termination_class_swa":     m.TerminationSWA.Load(),
		"termination_class_unknown": m.TerminationUnknown.Load(),
		"maintained_handles":        m.MaintainedHandles.Load(),
		"maintain_batches":          m.MaintainBatches.Load(),
		"maintain_rejected":         m.MaintainRejected.Load(),
		"join_round_plans":          m.Join.RoundPlans.Load(),
	}
}
