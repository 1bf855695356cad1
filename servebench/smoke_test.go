package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// smoke test holds the program to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// Every workload, end to end with a 1 s window and traced over 100 ops,
// must check out correct and print exactly the metrics BENCHMARK.json
// names, each with its unit.
func TestBenchmarkSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and replays every workload")
	}
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}

	bin := filepath.Join(t.TempDir(), "rulekit")
	if out, err := exec.Command("go", "build", "-o", bin, "guardedrules/cmd/rulekit").CombinedOutput(); err != nil {
		t.Fatalf("building rulekit: %v\n%s", err, out)
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := config{
				workload:  w.Name,
				seed:      3,
				window:    time.Second,
				serverBin: bin,
				workDir:   t.TempDir(),
				setupRuns: 1,
				traceOps:  100,
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("end to end: correct %v, %d of %d ops failed: %v", res.Correct, res.Failed, res.Attempted, res.problems)
			}
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("end to end printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}

			cfg.trace = true
			res, err = run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct %v, %d of %d ops failed: %v", res.Correct, res.Failed, res.Attempted, res.problems)
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s = %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			// The direct layer calls must account for the handler's time on
			// every op type heavy enough for that to mean something: below
			// a millisecond, routing and the response recorder dominate.
			if raceEnabled {
				return
			}
			p50 := res.meta["handler_p50_ms_by_op_type"].(map[string]float64)
			for kind, c := range res.meta["coverage_by_op_type"].(map[string]float64) {
				if p50[kind] >= 1 && c < 0.8 {
					t.Errorf("op type %s: layer spans cover %.2f of the handler's time, want >= 0.8", kind, c)
				}
			}
		})
	}
}
