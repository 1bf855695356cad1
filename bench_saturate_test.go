package guardedrules

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/gen"
	"guardedrules/internal/kb"
	"guardedrules/internal/normalize"
	"guardedrules/internal/parser"
	"guardedrules/internal/rewrite"
	"guardedrules/internal/saturate"
)

// saturateBenchRuns is the number of timed runs per measurement.
const saturateBenchRuns = 21

// satTemplate is one template of servebench's compile_miss cycle that
// runs a saturation: the 13 frontier-guarded seeds (rew then dat) and
// the two nearly guarded fixtures (dat).
type satTemplate struct {
	name string
	th   *core.Theory
	cq   string
}

func saturateBenchTemplates() []satTemplate {
	var out []satTemplate
	for s := int64(1); s <= 13; s++ {
		out = append(out, satTemplate{fmt.Sprintf("fg%d", s),
			gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 6, Seed: s}), "R(X,Y) -> Ans(X,Y)."})
	}
	out = append(out,
		satTemplate{"dlsafe", parser.MustParseTheory(`Node(X) -> exists K. Token(X,K).
Token(X,K) -> Tagged(X).
E(X,Y) -> T(X,Y).
T(X,Y), T(Y,Z) -> T(X,Z).
T(X,Y), Tagged(X), Tagged(Y) -> Connected(X,Y).`), "Connected(X,Y) -> Ans(X,Y)."},
		satTemplate{"example7", parser.MustParseTheory(exampleSevenBench), "D(X) -> Ans(X)."})
	return out
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
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	n := len(times)
	m := satMeasure{
		MedianNs:     times[n/2],
		Q1Ns:         times[n/4],
		Q3Ns:         times[3*n/4],
		Inferences:   st.Inferences,
		ComposePairs: st.ComposePairs,
		ClosureRules: st.ClosureRules,
		DatalogRules: st.DatalogRules,
		BaseRules:    st.BaseRules,
	}
	m.IQRNs = m.Q3Ns - m.Q1Ns
	return m, cl
}

// TestEmitSaturateBenchJSON times the dat(Σ) saturation of every
// compile_miss template three ways — Σ from scratch (registration),
// Σ∪q from scratch, and Σ∪q resumed from the frozen Ξ(Σ) (a cold CQ
// plan) — and writes BENCH_saturate.json. Rewriting is done once,
// outside the timed region. It only runs when EMIT_BENCH=1 is set:
//
//	EMIT_BENCH=1 go test -run TestEmitSaturateBenchJSON .
func TestEmitSaturateBenchJSON(t *testing.T) {
	if os.Getenv("EMIT_BENCH") != "1" {
		t.Skip("set EMIT_BENCH=1 to refresh BENCH_saturate.json")
	}
	type entry struct {
		Name          string     `json:"name"`
		Sigma         satMeasure `json:"sigma"`
		SigmaQScratch satMeasure `json:"sigma_q_scratch"`
		SigmaQResumed satMeasure `json:"sigma_q_resumed"`
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
	for _, tp := range saturateBenchTemplates() {
		q, err := kb.ParseCQ(tp.cq)
		if err != nil {
			t.Fatal(err)
		}
		att, err := kb.Attach(tp.th, q)
		if err != nil {
			t.Fatal(err)
		}
		sigma, sigmaQ := satInput(t, tp.th), satInput(t, att)
		e := entry{Name: tp.name}
		var base *saturate.Closure
		e.Sigma, base = measureSaturation(t, nil, sigma, false)
		e.SigmaQScratch, _ = measureSaturation(t, nil, sigmaQ, false)
		e.SigmaQResumed, _ = measureSaturation(t, base, sigmaQ, true)
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
