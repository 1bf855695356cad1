package guardedrules

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/gen"
	"guardedrules/internal/kb"
	"guardedrules/internal/kbcache"
	"guardedrules/internal/normalize"
	"guardedrules/internal/parser"
	"guardedrules/internal/rewrite"
	"guardedrules/internal/saturate"
)

// saturateBenchRuns is the number of timed runs per measurement.
const saturateBenchRuns = 21

// satTemplate is one template of servebench's compile_miss cycle with
// its CQ and a small DB over its signature. The first 15 run a
// saturation: the 13 frontier-guarded seeds (rew then dat) and the two
// nearly guarded fixtures (dat). The plain-Datalog and certified-chase
// fixtures complete the cycle's 17 for the cold-CQ rows.
type satTemplate struct {
	name  string
	th    *core.Theory
	cq    string
	facts string
}

func saturateBenchTemplates() []satTemplate {
	var out []satTemplate
	for s := int64(1); s <= 13; s++ {
		rng := rand.New(rand.NewSource(s))
		var facts strings.Builder
		for k := 0; k < 6; k++ {
			fmt.Fprintf(&facts, "%s(d%d). ", []string{"A", "B", "C"}[rng.Intn(3)], rng.Intn(6))
		}
		for k := 0; k < 12; k++ {
			fmt.Fprintf(&facts, "%s(d%d,d%d). ", []string{"R", "S"}[rng.Intn(2)], rng.Intn(6), rng.Intn(6))
		}
		out = append(out, satTemplate{fmt.Sprintf("fg%d", s),
			gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 6, Seed: s}), "R(X,Y) -> Ans(X,Y).", facts.String()})
	}
	return append(out,
		satTemplate{"dlsafe", parser.MustParseTheory(`Node(X) -> exists K. Token(X,K).
Token(X,K) -> Tagged(X).
E(X,Y) -> T(X,Y).
T(X,Y), T(Y,Z) -> T(X,Z).
T(X,Y), Tagged(X), Tagged(Y) -> Connected(X,Y).`), "Connected(X,Y) -> Ans(X,Y).", "Node(a). Node(b). Node(c). E(a,b). E(b,c)."},
		satTemplate{"example7", parser.MustParseTheory(exampleSevenBench), "D(X) -> Ans(X).", "A(c). C(c)."})
}

// coldOnlyTemplates are the compile_miss templates that run no
// saturation.
func coldOnlyTemplates() []satTemplate {
	return []satTemplate{
		{"transitive", parser.MustParseTheory("E(X,Y) -> T(X,Y).\nT(X,Y), T(Y,Z) -> T(X,Z)."), "T(X,Y) -> Ans(X,Y).", "E(a,b). E(b,c). E(c,d)."},
		{"wguarded", parser.MustParseTheory("A(X) -> exists Y. R(Y,X).\nR(Y,X), B(Z) -> P(Y,Z).\nP(Y,Z), R(Y,X) -> Out(X,Z)."), "Out(X,Z) -> Ans(X,Z).", "A(a). B(b)."},
	}
}

// satInput is what the kbcache route saturates: the theory itself when
// it is nearly guarded, rew(Σ) otherwise.
func satInput(t *testing.T, th *core.Theory) *core.Theory {
	t.Helper()
	if classify.Classify(th).Member[classify.NearlyGuarded] {
		return th
	}
	ng, _, err := rewrite.Rewrite(normalize.Normalize(th), rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ng
}

// quartiles sorts times and returns their median, first and third
// quartile.
func quartiles(times []int64) (median, q1, q3 int64) {
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	n := len(times)
	return times[n/2], times[n/4], times[3*n/4]
}

type satMeasure struct {
	MedianNs     int64 `json:"median_ns"`
	Q1Ns         int64 `json:"q1_ns"`
	Q3Ns         int64 `json:"q3_ns"`
	IQRNs        int64 `json:"iqr_ns"`
	Inferences   int   `json:"inferences"`
	ComposePairs int   `json:"compose_pairs"`
	ClosureRules int   `json:"closure_rules"`
	DatalogRules int   `json:"datalog_rules"`
	BaseRules    int   `json:"base_rules,omitempty"`
}

// measureSaturation times saturateBenchRuns runs of Extend(base, th).
func measureSaturation(t *testing.T, base *saturate.Closure, th *core.Theory, wantResumed bool) (satMeasure, *saturate.Closure) {
	t.Helper()
	times := make([]int64, saturateBenchRuns)
	var (
		st *saturate.Stats
		cl *saturate.Closure
	)
	for r := range times {
		t0 := time.Now()
		_, c, s, err := saturate.Extend(base, th, saturate.Options{})
		times[r] = time.Since(t0).Nanoseconds()
		if err != nil {
			t.Fatal(err)
		}
		if s.Resumed != wantResumed {
			t.Fatalf("resumed=%v (%s), want %v", s.Resumed, s.FreshReason, wantResumed)
		}
		st, cl = s, c
	}
	m := satMeasure{
		Inferences:   st.Inferences,
		ComposePairs: st.ComposePairs,
		ClosureRules: st.ClosureRules,
		DatalogRules: st.DatalogRules,
		BaseRules:    st.BaseRules,
	}
	m.MedianNs, m.Q1Ns, m.Q3Ns = quartiles(times)
	m.IQRNs = m.Q3Ns - m.Q1Ns
	return m, cl
}

// coldMeasure times a template's cold CQ: each of saturateBenchRuns runs
// registers the theory on a fresh store, untimed, then times one read.
type coldMeasure struct {
	MedianNs int64  `json:"median_ns"`
	Q1Ns     int64  `json:"q1_ns"`
	Q3Ns     int64  `json:"q3_ns"`
	IQRNs    int64  `json:"iqr_ns"`
	PlanKey  string `json:"plan_key"`
	Answers  int    `json:"answers"`
}

// measureColdCQ times saturateBenchRuns cold reads of tp's CQ and
// returns the answers of the last.
func measureColdCQ(t *testing.T, tp satTemplate, read func(*kbcache.CompiledKB, kb.CQ, *database.Database) (*kbcache.QueryResult, error)) (coldMeasure, string) {
	t.Helper()
	q, err := kb.ParseCQ(tp.cq)
	if err != nil {
		t.Fatal(err)
	}
	d := database.FromAtoms(parser.MustParseFacts(tp.facts))
	src := parser.PrintTheory(tp.th)
	times := make([]int64, saturateBenchRuns)
	var res *kbcache.QueryResult
	for r := range times {
		ckb, _, err := kbcache.NewStore(kbcache.Config{}).Register(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		res, err = read(ckb, q, d)
		times[r] = time.Since(t0).Nanoseconds()
		if err != nil || !res.Exact || res.PlanHit {
			t.Fatalf("%s: cold read exact %v plan hit %v err %v", tp.name, res != nil && res.Exact, res != nil && res.PlanHit, err)
		}
	}
	m := coldMeasure{PlanKey: res.PlanKey, Answers: len(res.Answers)}
	m.MedianNs, m.Q1Ns, m.Q3Ns = quartiles(times)
	m.IQRNs = m.Q3Ns - m.Q1Ns
	return m, fmt.Sprint(res.Answers)
}

// TestEmitSaturateBenchJSON times the dat(Σ) saturation of every
// compile_miss template that saturates three ways — Σ from scratch
// (registration), Σ∪q from scratch, and Σ∪q resumed from the frozen
// Ξ(Σ) (a cold CQ plan) — and writes BENCH_saturate.json. Rewriting is
// done once, outside the timed region. For all 17 templates it also
// times the cold CQ read after registration two ways: cold_cq_plan
// through AnswerCQ's dat(Σ∪q) plan, cold_cq_base through
// CompiledKB.Read of the CQ's selector, which for a single-atom CQ runs
// the KB's atom plan. Both must give the same answers. It only runs
// when EMIT_BENCH=1 is set:
//
//	EMIT_BENCH=1 go test -run TestEmitSaturateBenchJSON .
func TestEmitSaturateBenchJSON(t *testing.T) {
	if os.Getenv("EMIT_BENCH") != "1" {
		t.Skip("set EMIT_BENCH=1 to refresh BENCH_saturate.json")
	}
	type entry struct {
		Name          string      `json:"name"`
		Sigma         *satMeasure `json:"sigma,omitempty"`
		SigmaQScratch *satMeasure `json:"sigma_q_scratch,omitempty"`
		SigmaQResumed *satMeasure `json:"sigma_q_resumed,omitempty"`
		ColdCQPlan    coldMeasure `json:"cold_cq_plan"`
		ColdCQBase    coldMeasure `json:"cold_cq_base"`
	}
	report := struct {
		Command    string  `json:"command"`
		GoMaxProcs int     `json:"gomaxprocs"`
		NumCPU     int     `json:"num_cpu"`
		Runs       int     `json:"runs"`
		Templates  []entry `json:"templates"`
	}{
		Command:    "EMIT_BENCH=1 go test -run TestEmitSaturateBenchJSON .",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Runs:       saturateBenchRuns,
	}
	saturating := saturateBenchTemplates()
	for i, tp := range append(saturating, coldOnlyTemplates()...) {
		e := entry{Name: tp.name}
		if i < len(saturating) {
			q, err := kb.ParseCQ(tp.cq)
			if err != nil {
				t.Fatal(err)
			}
			att, err := kb.Attach(tp.th, q)
			if err != nil {
				t.Fatal(err)
			}
			sigma, sigmaQ := satInput(t, tp.th), satInput(t, att)
			var sig, scratch, resumed satMeasure
			var base *saturate.Closure
			sig, base = measureSaturation(t, nil, sigma, false)
			scratch, _ = measureSaturation(t, nil, sigmaQ, false)
			resumed, _ = measureSaturation(t, base, sigmaQ, true)
			e.Sigma, e.SigmaQScratch, e.SigmaQResumed = &sig, &scratch, &resumed
		}
		var planAns, baseAns string
		e.ColdCQPlan, planAns = measureColdCQ(t, tp, func(ckb *kbcache.CompiledKB, q kb.CQ, d *database.Database) (*kbcache.QueryResult, error) {
			return ckb.AnswerCQ(context.Background(), q, d, kbcache.QueryOptions{})
		})
		e.ColdCQBase, baseAns = measureColdCQ(t, tp, func(ckb *kbcache.CompiledKB, q kb.CQ, d *database.Database) (*kbcache.QueryResult, error) {
			return ckb.Read(context.Background(), ckb.CQSelector(q), d, kbcache.QueryOptions{})
		})
		if planAns != baseAns || e.ColdCQBase.Answers == 0 {
			t.Fatalf("%s: the selector read answered %s, AnswerCQ %s", tp.name, baseAns, planAns)
		}
		report.Templates = append(report.Templates, e)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_saturate.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_saturate.json (%d templates)", len(report.Templates))
}
