package guardedrules

// The benchmarks of the repo's evaluation: BenchmarkExperiment times
// every experiment of EXPERIMENTS.md (E1–E12, A1–A8) through the run
// functions that cmd/expbench prints, and the engine benchmarks below
// and in bench_saturate_test.go and bench_store_test.go time the
// workloads behind the BENCH_*.json files. Run with:
//
//	go test -run '^$' -bench . -benchmem
//
// TestEmitBenchJSON writes every BENCH file from these benchmarks.
//
// Absolute numbers are this implementation's; the paper proves the
// translations' correctness and complexity, and the shapes to check are:
// answer preservation on every instance, at most single-exponential
// expansion for rew, potentially double-exponential saturation for dat,
// polynomial evaluation for the Datalog-expressible fragments, and
// super-polynomial growth of the Σsucc ordering forest.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/gen"
	"guardedrules/internal/parser"
	"guardedrules/internal/termination"
	"guardedrules/internal/workload"
)

// BenchmarkExperiment times each experiment at each of its full sizes,
// as sub-benchmarks <ID>/n=<size> (<ID> alone for an experiment without
// sizes).
func BenchmarkExperiment(b *testing.B) {
	for _, e := range workload.Experiments {
		run := func(name string, sizes []int) {
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := e.Run(sizes, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		if len(e.Full) == 0 {
			run(e.ID, nil)
		}
		for _, n := range e.Full {
			run(fmt.Sprintf("%s/n=%d", e.ID, n), []int{n})
		}
	}
}

// BenchmarkEvalSemiNaive measures the semi-naive engine on transitive
// closure over chain forests of 1k/5k/20k edges.
func BenchmarkEvalSemiNaive(b *testing.B) {
	th := parser.MustParseTheory(workload.Transitive)
	for _, edges := range []int{1_000, 5_000, 20_000} {
		d := gen.ChainForest(edges/49, 50)
		b.Run(fmt.Sprintf("edges=%d", edges), func(b *testing.B) {
			var fix *database.Database
			var err error
			for i := 0; i < b.N; i++ {
				if fix, err = datalog.EvalSemiNaive(th, d); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(fix.Len()), "facts")
		})
	}
}

// BenchmarkJoinPlanner times the cost-based planner (plans from live
// statistics, remade when a relation grew or shrank 2×), cold (stratify
// + compile every evaluation) and warm (a shared compiled Program, the
// serving layer's steady state), on a recursive closure (delta-driven,
// plans re-fitted as T grows) and a triangle join (a 3-atom body whose
// last atom, bound at both positions, is a seen-set check).
func BenchmarkJoinPlanner(b *testing.B) {
	for _, c := range []struct {
		name, theory string
		db           *database.Database
	}{
		{"closure", workload.Transitive, gen.ChainForest(40, 50)},
		{"triangles", `E(X,Y) -> T(X,Y).
			T(X,Y), T(Y,Z), E(X,Z) -> Tri(X,Y).`, gen.RandomGraph(120, 600, 11)},
	} {
		th := parser.MustParseTheory(c.theory)
		p, err := datalog.Compile(th)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []string{"cold", "warm"} {
			b.Run(fmt.Sprintf("%s/planner=cost/%s", c.name, mode), func(b *testing.B) {
				var fix *database.Database
				var err error
				for i := 0; i < b.N; i++ {
					if mode == "cold" {
						fix, err = datalog.EvalSemiNaiveOpts(th, c.db, datalog.Options{})
					} else {
						fix, err = p.Eval(c.db, datalog.Options{})
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(fix.Len()), "facts")
			})
		}
	}
}

// BenchmarkChase measures the id-space restricted chase on the running
// example over growing citation graphs.
func BenchmarkChase(b *testing.B) {
	th := parser.MustParseTheory(workload.SigmaP)
	for _, n := range []int{8, 24, 48} {
		d := gen.CitationGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var res *chase.Result
			var err error
			for i := 0; i < b.N; i++ {
				opts := chase.Options{Variant: chase.Restricted, MaxDepth: 4, Budget: &budget.T{MaxFacts: 2_000_000}}
				if res, err = chase.Run(th, d, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.DB.Len()), "facts")
		})
	}
}

// BenchmarkTermination times the full acyclicity-hierarchy analysis (WA
// graph, JA dependency graph, critical-instance check, certificate
// construction) on the class-separating theory families at growing
// rule counts; each row names the class the analysis must find.
func BenchmarkTermination(b *testing.B) {
	for _, fam := range []struct {
		name, class string
		mk          func(n int) *core.Theory
	}{
		{"wa-chain", "wa", gen.WAChainTheory},
		{"ja-not-wa", "ja", gen.JANotWATheory},
		{"swa-not-ja", "swa", gen.SWANotJATheory},
	} {
		for _, n := range []int{4, 16, 64} {
			th := fam.mk(n)
			b.Run(fmt.Sprintf("%s/n=%d/class=%s", fam.name, n, fam.class), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if c := termination.Analyze(th).Class.String(); c != fam.class {
						b.Fatalf("class %s, want %s", c, fam.class)
					}
				}
			})
		}
	}
}

// BenchmarkIncrementalMaintenance contrasts from-scratch re-evaluation
// with delta-driven maintenance on transitive closure over paths of n
// edges. Each maintained iteration inserts one edge extending the path
// by a fresh tail node and retracts it again, so the handle stays in
// steady state; the insert and retract rows time only their own step.
func BenchmarkIncrementalMaintenance(b *testing.B) {
	prog, err := datalog.Compile(parser.MustParseTheory(workload.Transitive))
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{16, 32, 64} {
		d := gen.Path(n)
		edge := parser.MustParseFacts(fmt.Sprintf("E(v%d,w).", n-1))
		b.Run(fmt.Sprintf("n=%d/from-scratch", n), func(b *testing.B) {
			var fix *database.Database
			var err error
			for i := 0; i < b.N; i++ {
				if fix, err = prog.Eval(d, datalog.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(fix.Len()), "facts")
		})
		// maintained returns a handle at the fixpoint over d, with the
		// timer reset after its evaluation.
		maintained := func(b *testing.B) *datalog.Maintained {
			m, err := datalog.NewMaintained(prog, d, datalog.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			return m
		}
		apply := func(b *testing.B, m *datalog.Maintained, add, del []core.Atom) {
			if _, _, err := m.Apply(add, del, datalog.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("n=%d/insert", n), func(b *testing.B) {
			m, facts := maintained(b), 0
			for i := 0; i < b.N; i++ {
				apply(b, m, edge, nil)
				b.StopTimer()
				facts = m.Current().Len()
				apply(b, m, nil, edge)
				b.StartTimer()
			}
			b.ReportMetric(float64(facts), "facts")
		})
		b.Run(fmt.Sprintf("n=%d/retract", n), func(b *testing.B) {
			m := maintained(b)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				apply(b, m, edge, nil)
				b.StartTimer()
				apply(b, m, nil, edge)
			}
			b.ReportMetric(float64(m.Current().Len()), "facts")
		})
	}
}

// benchRun is one `go test -bench` run of a BENCH file.
type benchRun struct{ pkg, pattern, benchtime string }

// benchFiles lists, per file BENCH_<name>.json, the benchmark runs whose
// rows it holds.
var benchFiles = []struct {
	name string
	runs []benchRun
}{
	{"chase", []benchRun{{".", "^BenchmarkChase$", "200ms"}}},
	// AnswerAtomWide is servebench's read_mix side op in process, at
	// three DB widths: a goal-directed read should not grow with |DB|.
	{"datalog", []benchRun{{".", "^BenchmarkEvalSemiNaive$", "200ms"}, {"./internal/kbcache", "^BenchmarkAnswerAtomWide$", "200ms"}}},
	// MutateLiveBatch is servebench's mutate_live batch in process.
	{"incremental", []benchRun{{".", "^BenchmarkIncrementalMaintenance$", "200ms"}, {"./internal/kbcache", "^BenchmarkMutateLiveBatch$", "200ms"}}},
	{"join", []benchRun{{".", "^BenchmarkJoinPlanner$", "200ms"}}},
	// A cold CQ registers its theory, untimed, before every read, so
	// its rows run a fixed number of reads.
	// Rewrite is rew(Σ) alone; Register is compile_miss's primary op.
	{"saturate", []benchRun{{".", "^BenchmarkSaturate$", "100ms"}, {".", "^BenchmarkColdCQ$", "20x"},
		{".", "^BenchmarkRewrite$", "100ms"}, {".", "^BenchmarkRegister$", "100ms"}}},
	{"store", []benchRun{{".", "^Benchmark(Ingest|SegmentStore)$", "200ms"}}},
	{"termination", []benchRun{{".", "^BenchmarkTermination$", "200ms"}}},
}

// benchRuns is the number of runs of every BENCH row.
const benchRuns = 11

// benchRow is one row of a BENCH file: a benchmark's medians over
// benchRuns runs, the quartiles of its time, and its reported counters.
type benchRow struct {
	Name        string             `json:"name"`
	Params      map[string]any     `json:"params,omitempty"`
	Command     string             `json:"command"`
	GoMaxProcs  int                `json:"gomaxprocs"`
	NumCPU      int                `json:"num_cpu"`
	Runs        int                `json:"runs"`
	MedianNs    float64            `json:"median_ns"`
	Q1Ns        float64            `json:"q1_ns"`
	Q3Ns        float64            `json:"q3_ns"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	Counters    map[string]float64 `json:"counters,omitempty"`
}

// TestEmitBenchJSON writes the BENCH_*.json files, one per subtest. It
// only runs when EMIT_BENCH=1 is set, so regular test runs stay fast:
//
//	EMIT_BENCH=1 go test -run TestEmitBenchJSON -timeout 40m .   # all files
//	EMIT_BENCH=1 go test -run 'TestEmitBenchJSON/^saturate$' .   # one file
//
// Each row is a benchmark of benchFiles run benchRuns times by a child
// `go test -bench`, whose command the row records, so the file and `go
// test -bench` time the same code. The incremental file also enforces
// its headline claim: at n=64 a single-fact insert is at least 10x
// faster than re-evaluating from scratch.
func TestEmitBenchJSON(t *testing.T) {
	if os.Getenv("EMIT_BENCH") != "1" {
		t.Skip("set EMIT_BENCH=1 to refresh the BENCH_*.json files")
	}
	for _, f := range benchFiles {
		t.Run(f.name, func(t *testing.T) {
			var rows []benchRow
			cpu := ""
			for _, r := range f.runs {
				var rs []benchRow
				rs, cpu = runBench(t, r)
				rows = append(rows, rs...)
			}
			if f.name == "incremental" {
				med := map[string]float64{}
				for _, r := range rows {
					med[r.Name] = r.MedianNs
				}
				scratch, insert := med["IncrementalMaintenance/n=64/from-scratch"], med["IncrementalMaintenance/n=64/insert"]
				if !(scratch >= 10*insert) || insert == 0 {
					t.Fatalf("n=64 single-fact insert %.0fns against from-scratch %.0fns, want >= 10x faster", insert, scratch)
				}
			}
			data, err := json.MarshalIndent(struct {
				Emitter string     `json:"emitter"`
				CPU     string     `json:"cpu"`
				Rows    []benchRow `json:"rows"`
			}{fmt.Sprintf("EMIT_BENCH=1 go test -run 'TestEmitBenchJSON/^%s$' .", f.name), cpu, rows}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile("BENCH_"+f.name+".json", append(data, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote BENCH_%s.json (%d rows)", f.name, len(rows))
		})
	}
}

// benchLine matches a result line of `go test -bench`: the name without
// its GOMAXPROCS suffix, then the value-unit pairs after the iteration
// count.
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// runBench runs r in a child `go test` and returns its rows and the CPU
// the child reported.
func runBench(t *testing.T, r benchRun) ([]benchRow, string) {
	args := []string{"test", "-run", "^$", "-bench", r.pattern, "-benchmem", "-count", strconv.Itoa(benchRuns), "-benchtime", r.benchtime, r.pkg}
	command := fmt.Sprintf("go test -run '^$' -bench '%s' -benchmem -count %d -benchtime %s %s", r.pattern, benchRuns, r.benchtime, r.pkg)
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s: %v\n%s", command, err, out)
	}
	var names []string
	samples := map[string]map[string][]float64{}
	cpu := ""
	for _, line := range strings.Split(string(out), "\n") {
		if c, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = c
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if samples[m[1]] == nil {
			names = append(names, m[1])
			samples[m[1]] = map[string][]float64{}
		}
		f := strings.Fields(m[2])
		for i := 0; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				t.Fatalf("%s: %q: %v", command, line, err)
			}
			samples[m[1]][f[i+1]] = append(samples[m[1]][f[i+1]], v)
		}
	}
	if len(names) == 0 {
		t.Fatalf("%s: no benchmark results\n%s", command, out)
	}
	var rows []benchRow
	for _, name := range names {
		s := samples[name]
		row := benchRow{Name: name, Command: command, GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Runs: len(s["ns/op"])}
		if row.Runs != benchRuns {
			t.Fatalf("%s: %s has %d runs, want %d\n%s", command, name, row.Runs, benchRuns, out)
		}
		for _, seg := range strings.Split(name, "/") {
			if k, v, ok := strings.Cut(seg, "="); ok {
				if row.Params == nil {
					row.Params = map[string]any{}
				}
				row.Params[k] = v
				if n, err := strconv.Atoi(v); err == nil {
					row.Params[k] = n
				}
			}
		}
		row.MedianNs, row.Q1Ns, row.Q3Ns = quartiles(s["ns/op"])
		for unit, v := range s {
			median, _, _ := quartiles(v)
			switch unit {
			case "ns/op":
			case "B/op":
				row.BytesPerOp = median
			case "allocs/op":
				row.AllocsPerOp = median
			default:
				if row.Counters == nil {
					row.Counters = map[string]float64{}
				}
				row.Counters[unit] = median
			}
		}
		rows = append(rows, row)
	}
	return rows, cpu
}

// quartiles sorts v and returns its median, first and third quartile.
func quartiles(v []float64) (median, q1, q3 float64) {
	sort.Float64s(v)
	n := len(v)
	return v[n/2], v[n/4], v[3*n/4]
}
