package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is one benchmark run.
type config struct {
	workload  string
	seed      int64
	window    time.Duration
	trace     bool
	serverBin string // rulekit binary (end-to-end runs)
	workDir   string // scratch root for data dirs, removed after the run
	traceOut  string // where spans go (traced runs; empty: nowhere)
	setupRuns int    // fresh-server set-ups per run; setup_s is their median
	traceOps  int    // ops of the traced replay
}

const (
	defaultSetupRuns = 5
	defaultTraceOps  = 200
)

func main() {
	cfg := config{setupRuns: defaultSetupRuns, traceOps: defaultTraceOps}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured window")
	trace := flag.Int("trace", 0, "1: traced in-process replay printing the per-layer metrics")
	flag.StringVar(&cfg.serverBin, "server", "", "rulekit binary to serve from")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build", "scratch directory for server data")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write the traced run's spans here as JSON")
	flag.Parse()
	cfg.window = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(2)
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "servebench: %s\n", p)
	}
	meta, err := json.Marshal(map[string]any{"meta": res.meta})
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(meta))
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run in a private scratch directory.
func run(cfg config) (*result, error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if !cfg.trace && cfg.serverBin == "" {
		return nil, fmt.Errorf("-server is required for end-to-end runs")
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir

	var res *result
	if cfg.trace {
		res, err = runTrace(cfg, mk())
	} else {
		res, err = runE2E(cfg, mk())
	}
	if err != nil {
		return nil, err
	}
	for k, v := range runMeta(cfg) {
		res.meta[k] = v
	}
	return res, nil
}

// runMeta describes the run and the machine it ran on.
func runMeta(cfg config) map[string]any {
	commit, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"traced":        cfg.trace,
		"commit":        commit,
		"commit_dirty":  dirty,
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"clients":       clients[cfg.workload],
		"percentile":    fmt.Sprintf("nearest rank; failed or shed requests rank above every sample; a percentile with fewer than %d samples beyond it is listed as unresolved", minBeyond),
		"held_out_seed": heldOutSeed,
	}
}

// clients states each workload's load shape.
var clients = map[string]string{
	"read_mix":       "1 closed-loop client",
	"compile_miss":   "1 closed-loop client",
	"mutate_live":    fmt.Sprintf("open-loop writer due every %v (every %dth due time a kernel slot) on <=%d connections, 1 closed-loop reader, 2 SSE subscribers", batchEvery, slotEvery, writerConns),
	"ingest_durable": "1 closed-loop client",
}

// heldOutSeed is kept out of development runs: a claimed gain must also
// hold on it.
const heldOutSeed = 7919

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	meta     map[string]any
	problems []string
}

func newResult(rec *recorder) *result {
	return &result{
		Correct:   rec.failed == 0 && len(rec.problems) == 0,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics:   map[string]metric{},
		meta:      map[string]any{},
		problems:  rec.problems,
	}
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: finiteOr(v), Unit: unit}
}
