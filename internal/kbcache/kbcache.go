// Package kbcache serves compiled knowledge bases: it turns theory
// sources into immutable CompiledKB artifacts — parse, lint,
// classification, and the fragment-appropriate translation chain of the
// paper, computed once — and caches per-query evaluation plans so that
// repeat queries skip every compilation step.
//
// The split mirrors the paper's complexity analysis: everything whose
// cost depends only on Σ (classification, rew(Σ) of Theorems 1–2, dat(Σ)
// of Theorem 3) is combined-complexity work and is paid once at
// registration; answering a query against a compiled artifact is the
// data-complexity part and is all that repeat calls pay.
//
// A Store deduplicates concurrent registrations of the same source
// (singleflight keyed by the source hash), bounds the number of live
// artifacts with an LRU, and exposes atomic Metrics so callers can
// observe hit rates — in particular, that the second answer of an
// identical query performs zero re-translation work.
package kbcache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"guardedrules/internal/budget"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/datalog"
	"guardedrules/internal/lint"
	"guardedrules/internal/normalize"
	"guardedrules/internal/parser"
	"guardedrules/internal/rewrite"
	"guardedrules/internal/saturate"
	"guardedrules/internal/termination"
)

// Mode says how a compiled KB answers queries.
type Mode int

const (
	// ModeDatalog: the source is plain (stratified) Datalog; it is
	// compiled directly and every answer is exact.
	ModeDatalog Mode = iota
	// ModeTranslated: the source is an existential theory inside the
	// translatable fragments (nearly guarded, or (nearly)
	// frontier-guarded); queries run against dat(Σ) artifacts
	// (Theorems 1 and 3), so answers are exact.
	ModeTranslated
	// ModeChase: no complete Datalog translation applies (weakly
	// (frontier-)guarded or beyond, or a translation was aborted);
	// queries run a bounded chase per call — sound always, exact exactly
	// when the chase saturates.
	ModeChase
	// ModeCertified: like ModeChase, but a termination certificate
	// (internal/termination) proves the chase finite, so default queries
	// run it to saturation with no fact ceiling and every answer is
	// exact.
	ModeCertified
)

func (m Mode) String() string {
	switch m {
	case ModeDatalog:
		return "datalog"
	case ModeTranslated:
		return "translated"
	case ModeChase:
		return "chase"
	case ModeCertified:
		return "certified"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config bounds a Store.
type Config struct {
	// MaxKBs caps the number of live compiled KBs (LRU; 0 means 32).
	MaxKBs int
	// MaxPlansPerKB caps each KB's query-plan cache (LRU; 0 means 64).
	MaxPlansPerKB int
	// CompileTimeout bounds each compilation (translations included);
	// 0 means none.
	CompileTimeout time.Duration
	// MaxRules caps the rules of intermediate translation artifacts;
	// 0 means the engine defaults. A translation that exhausts it falls
	// back to ModeChase instead of failing registration.
	MaxRules int
	// DefaultChaseDepth bounds chase-mode queries that arrive without an
	// explicit depth or budget, so an infinite chase cannot hang the
	// store (0 means 8).
	DefaultChaseDepth int
}

func (c Config) maxKBs() int {
	if c.MaxKBs <= 0 {
		return 32
	}
	return c.MaxKBs
}

func (c Config) maxPlans() int {
	if c.MaxPlansPerKB <= 0 {
		return 64
	}
	return c.MaxPlansPerKB
}

func (c Config) chaseDepth() int {
	if c.DefaultChaseDepth <= 0 {
		return 8
	}
	return c.DefaultChaseDepth
}

// Store caches compiled KBs by the hash of their source.
type Store struct {
	cfg     Config
	metrics *Metrics
	kbs     *cache[*CompiledKB]
}

// NewStore builds an empty store.
func NewStore(cfg Config) *Store {
	m := &Metrics{}
	return &Store{
		cfg:     cfg,
		metrics: m,
		kbs:     newCache[*CompiledKB](cfg.maxKBs(), &m.CompileHits, &m.CompileDedup, &m.KBEvictions),
	}
}

// Metrics is the store's shared counter set.
func (s *Store) Metrics() *Metrics { return s.metrics }

// HashSource is the cache identity of a theory source: the hex sha256 of
// its bytes. Textually different but equivalent sources compile twice —
// the key promises only that identical sources never do.
func HashSource(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:])
}

// Register compiles the source (or returns the cached artifact) and
// interns it under its hash. Concurrent registrations of the same source
// share one compilation; ctx is this caller's interest in it — when
// every interested caller's context dies the in-flight compilation is
// canceled, but one disconnecting client (even the one that started the
// compile) never cancels work other clients are still waiting on, and a
// canceled compilation is not cached, so the next request recompiles
// cleanly. cached reports whether this call reused an existing or
// in-flight compilation instead of running its own.
func (s *Store) Register(ctx context.Context, src string) (kb *CompiledKB, cached bool, err error) {
	id := HashSource(src)
	return s.intern(ctx, id, &s.metrics.CompileMisses, func(cctx context.Context) (*CompiledKB, error) {
		return s.compile(cctx, id, src)
	})
}

// intern returns the KB cached under id, or builds and caches it; built
// counts a successful build, CompileErrors a failed one.
func (s *Store) intern(ctx context.Context, id string, built *atomic.Int64, build func(context.Context) (*CompiledKB, error)) (*CompiledKB, bool, error) {
	return s.kbs.intern(ctx, id, built, func(cctx context.Context) (*CompiledKB, error) {
		kb, err := build(cctx)
		if err != nil {
			s.metrics.CompileErrors.Add(1)
		}
		return kb, err
	})
}

// Get returns the compiled KB under the id, if it is still cached.
func (s *Store) Get(id string) (*CompiledKB, bool) { return s.kbs.get(id) }

// Len is the number of live compiled KBs.
func (s *Store) Len() int { return s.kbs.len() }

// translateBudget is the budget of one compilation or plan build: the
// configured ceilings plus the build flight's interest context, so a
// build whose every waiter has disconnected stops at its next
// checkpoint instead of running to completion for nobody.
func (c Config) translateBudget(ctx context.Context) *budget.T {
	return &budget.T{Ctx: ctx, Timeout: c.CompileTimeout, MaxRules: c.MaxRules}
}

// CompiledKB is the immutable pay-once artifact of a theory: parse
// tree, lint report, fragment classification, the translation chain
// appropriate to its fragment, and a compiled base program where one
// exists. It is safe for concurrent use; per-query plans are cached
// inside it.
type CompiledKB struct {
	// ID is the hex sha256 of Source.
	ID string
	// Source is the registered theory text, verbatim.
	Source string
	// Theory is the parsed source.
	Theory *core.Theory
	// Lint is the static-analysis report of the source.
	Lint []lint.Diagnostic
	// Class is the fragment classification (Figure 1).
	Class *classify.Report
	// Termination is the chase-termination report: acyclicity hierarchy
	// verdict, certificate, and (for weakly acyclic theories) the
	// fact-bound coefficients. Shared with the lint pass — computed once.
	Termination *termination.Report
	// Mode says how queries are answered.
	Mode Mode
	// Chain documents the compilation chain, one step per line.
	Chain []string

	// program is the compiled base program: the source itself
	// (ModeDatalog) or dat(Σ) (ModeTranslated); nil in ModeChase. It
	// answers atomic queries; CQs over existential theories get per-query
	// plans (see plan.go).
	program *datalog.Program

	// translated is the Datalog theory the program was compiled from in
	// ModeTranslated — the saturation product, retained so Artifact() can
	// persist it and a restart can skip re-running the translation. Nil
	// in every other mode.
	translated *core.Theory

	// closure is the frozen saturation Ξ behind translated — of Σ, or of
	// rew(Σ) for nearly frontier-guarded sources — which cold CQ plans
	// extend instead of saturating Σ∪q from scratch. KBs restored from an
	// artifact build it on their first cold plan (see baseClosure).
	closureMu sync.Mutex
	closure   *saturate.Closure

	cfg     Config
	metrics *Metrics
	plans   *cache[*plan]
}

// compile runs the pay-once pipeline: parse, lint, classify, translate
// per fragment, and compile the base program. ctx is the flight's
// interest context: its cancellation aborts the compile outright (the
// artifact is never cached half-translated), unlike a translation
// ceiling, which falls back to chase mode.
func (s *Store) compile(ctx context.Context, id, src string) (*CompiledKB, error) {
	kb, err := s.analyze(id, src)
	if err != nil {
		return nil, err
	}
	bud := s.cfg.translateBudget(ctx)
	th := kb.Theory
	switch {
	case kb.Class.Member[classify.Datalog]:
		prog, err := datalog.Compile(th)
		if err != nil {
			return nil, fmt.Errorf("kbcache: %w", err)
		}
		kb.Mode = ModeDatalog
		kb.program = prog
		kb.Chain = []string{"source is plain Datalog; compiled directly"}
	case !th.HasNegation() && (kb.Class.Member[classify.NearlyGuarded] || kb.Class.Member[classify.NearlyFrontierGuarded]):
		t, err := translate(nil, th, kb.Class, "Σ", bud)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return nil, fmt.Errorf("kbcache: compile canceled: %w", err)
			}
			kb.fallBackToChase(t.step, err)
			break
		}
		s.metrics.Translations.Add(1)
		s.metrics.SaturationsFull.Add(1)
		prog, cerr := datalog.Compile(t.dat)
		if cerr != nil {
			return nil, fmt.Errorf("kbcache: %s: %w", t.step, cerr)
		}
		kb.Mode, kb.program, kb.translated, kb.closure = ModeTranslated, prog, t.dat, t.cl
		if t.ng == nil {
			kb.Chain = []string{fmt.Sprintf("%s: nearly guarded → %d Datalog rules (Theorem 3 / Proposition 6)", t.step, len(t.dat.Rules))}
		} else {
			kb.Chain = []string{
				fmt.Sprintf("rew(Σ): nearly frontier-guarded → %d nearly guarded rules (Theorem 1 / Proposition 4)", len(t.ng.Rules)),
				fmt.Sprintf("%s: → %d Datalog rules (Theorem 3 / Proposition 6)", t.step, len(t.dat.Rules)),
			}
		}
	default:
		kb.Mode = ModeChase
		kb.Chain = []string{"no complete Datalog translation for this fragment; per-query bounded chase (Section 7)"}
	}
	// A termination certificate upgrades any chase-mode KB (fragment
	// default or translation fallback) to budget-free certified serving.
	if kb.Mode == ModeChase && kb.Termination.Class.Terminating() {
		kb.Mode = ModeCertified
		kb.Chain = append(kb.Chain, fmt.Sprintf(
			"termination certificate (class %s): per-query chase runs to saturation, budget-free", kb.Termination.Class))
	}
	return kb, nil
}

// translation is what translate produced: rew(th) when th needed it,
// dat and its frozen closure, and the saturation's stats.
type translation struct {
	step string       // the last step run: "dat(Σ)", "rew(Σ)", "dat(rew(Σ))", …
	ng   *core.Theory // rew(th); nil when th is nearly guarded
	dat  *core.Theory
	cl   *saturate.Closure
	st   *saturate.Stats
}

// translate runs the paper's chain on th, which rep classifies nearly
// (frontier-)guarded: rew(th) (Theorem 1 / Proposition 4) unless th is
// nearly guarded, then dat (Theorem 3 / Proposition 6), saturated by
// extending the frozen closure base returns, or from scratch when base
// is nil or returns nil. sym names th in the step names; on error step
// names the step that failed.
func translate(base func(*budget.T) *saturate.Closure, th *core.Theory, rep *classify.Report, sym string, bud *budget.T) (t translation, err error) {
	t.step = "dat(" + sym + ")"
	if !rep.Member[classify.NearlyGuarded] {
		t.step = "rew(" + sym + ")"
		if t.ng, _, err = rewrite.Rewrite(normalize.Normalize(th), rewrite.Options{Budget: bud}); err != nil {
			return t, err
		}
		th, t.step = t.ng, "dat(rew("+sym+"))"
	}
	var cl *saturate.Closure
	if base != nil {
		cl = base(bud)
	}
	t.dat, t.cl, t.st, err = saturate.Extend(cl, th, saturate.Options{Budget: bud})
	return t, err
}

// analyze runs the compilation pipeline's cheap, fragment-independent
// prefix: parse, lint, classification, termination analysis. Both the
// full compile and artifact restoration start here.
func (s *Store) analyze(id, src string) (*CompiledKB, error) {
	th, err := parser.ParseTheory(src)
	if err != nil {
		return nil, fmt.Errorf("kbcache: parse: %w", err)
	}
	if len(th.Rules) == 0 {
		return nil, fmt.Errorf("kbcache: theory has no rules")
	}
	lctx := &lint.Context{Theory: th}
	kb := &CompiledKB{
		ID:      id,
		Source:  src,
		Theory:  th,
		Lint:    lint.RunWithContext(lctx, lint.Registry()),
		Class:   classify.Classify(th),
		cfg:     s.cfg,
		metrics: s.metrics,
	}
	// The lint termination pass already ran the full analysis; reuse it.
	kb.Termination = lctx.Termination()
	s.metrics.countTermination(kb.Termination.Class)
	kb.plans = newCache[*plan](s.cfg.maxPlans(), &s.metrics.PlanHits, &s.metrics.PlanHits, &s.metrics.PlanEvictions)
	return kb, nil
}

// fallBackToChase downgrades an aborted translation to chase mode: the
// KB stays servable (soundly, per-query) and the chain records why.
func (kb *CompiledKB) fallBackToChase(step string, err error) {
	kb.Mode = ModeChase
	kb.program = nil
	kb.translated = nil
	kb.closure = nil
	kb.Chain = []string{
		fmt.Sprintf("%s aborted (%v); falling back to per-query bounded chase", step, err),
	}
}

// Program exposes the compiled base program (nil in ModeChase).
func (kb *CompiledKB) Program() *datalog.Program { return kb.program }

// PlanKeys lists the cached query-plan keys, most recently used first.
func (kb *CompiledKB) PlanKeys() []string { return kb.plans.keys() }
