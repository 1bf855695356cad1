package guardedrules

// Persistence-layer benchmarks (DESIGN.md §13, EXPERIMENTS.md A11): the
// append-only segment store vs the plain in-memory database. Three
// costs matter for serving: journaled write throughput (the mutation
// path pays it per batch), cold-open latency (boot pays it per DB, from
// the WAL or from a compacted snapshot), and the clone cost of
// publishing an immutable served version. BENCH_store.json records the
// trajectory (see TestEmitStoreBenchJSON).

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/gen"
	"guardedrules/internal/store/segment"
)

// storeBenchFacts builds the n-fact workload: a citation-graph-shaped
// corpus with enough distinct constants to exercise the intern log.
func storeBenchFacts(n int) []core.Atom {
	var out []core.Atom
	for i := 0; len(out) < n; i++ {
		p := core.Const(fmt.Sprintf("p%d", i))
		q := core.Const(fmt.Sprintf("p%d", (i*7+1)%(n/2+1)))
		out = append(out, core.NewAtom("Publication", p), core.NewAtom("cites", p, q))
	}
	return out[:n]
}

// seedSegmentDir populates a fresh store directory with n committed
// user facts and returns its path, its on-disk size in bytes, and the
// total fact count (user facts plus derived ACDom bookkeeping).
func seedSegmentDir(tb testing.TB, n int, compact bool) (string, int64, int) {
	tb.Helper()
	dir := tb.TempDir()
	s, err := segment.Open(dir, segment.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for _, a := range storeBenchFacts(n) {
		s.Add(a)
	}
	if _, err := s.Commit(); err != nil {
		tb.Fatal(err)
	}
	wantLen := s.Clone().Len()
	if compact {
		if err := s.Compact(); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	// Reopen once outside any timed region: the cold-open loops below
	// then time Open+Close alone.
	r, err := segment.Open(dir, segment.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if got := r.Clone().Len(); got != wantLen {
		tb.Fatalf("opened %d facts, want %d", got, wantLen)
	}
	if err := r.Close(); err != nil {
		tb.Fatal(err)
	}
	var bytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		bytes += fi.Size()
	}
	return dir, bytes, wantLen
}

// BenchmarkSegmentStore measures the persistent store against the
// in-memory baseline: journaled add+commit vs plain adds, cold open
// from the WAL vs from a compacted snapshot, and the served-version
// clone. CI emits the ns/op trajectory as the BENCH_store.json
// artifact.
func BenchmarkSegmentStore(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		facts := storeBenchFacts(n)
		b.Run(fmt.Sprintf("MemoryAdd/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := database.New()
				for _, a := range facts {
					d.Add(a)
				}
			}
		})
		b.Run(fmt.Sprintf("AddCommit/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				b.StartTimer()
				s, err := segment.Open(dir, segment.Options{})
				if err != nil {
					b.Fatal(err)
				}
				for _, a := range facts {
					s.Add(a)
				}
				if _, err := s.Commit(); err != nil {
					b.Fatal(err)
				}
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, mode := range []struct {
			name    string
			compact bool
		}{{"ColdOpenWAL", false}, {"ColdOpenSnapshot", true}} {
			b.Run(fmt.Sprintf("%s/n=%d", mode.name, n), func(b *testing.B) {
				dir, _, _ := seedSegmentDir(b, n, mode.compact)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s, err := segment.Open(dir, segment.Options{})
					if err != nil {
						b.Fatal(err)
					}
					if err := s.Close(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("Clone/n=%d", n), func(b *testing.B) {
			dir, _, wantLen := seedSegmentDir(b, n, false)
			s, err := segment.Open(dir, segment.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.Clone().Len() != wantLen {
					b.Fatal("bad clone")
				}
			}
		})
	}
}

// TestEmitStoreBenchJSON times the BenchmarkSegmentStore configurations
// once per configuration and writes BENCH_store.json: the write/open/
// clone latencies plus the on-disk footprint (WAL and compacted) per
// fact count, giving future PRs the persistence perf trajectory. Only
// runs when EMIT_BENCH=1 is set:
//
//	EMIT_BENCH=1 go test -run TestEmitStoreBenchJSON .
func TestEmitStoreBenchJSON(t *testing.T) {
	if os.Getenv("EMIT_BENCH") != "1" {
		t.Skip("set EMIT_BENCH=1 to refresh BENCH_store.json")
	}
	type entry struct {
		Name      string `json:"name"`
		N         int    `json:"n"`
		NsPerOp   int64  `json:"ns_per_op"`
		DiskBytes int64  `json:"disk_bytes,omitempty"`
	}
	report := struct {
		GoMaxProcs int     `json:"gomaxprocs"`
		Benchmarks []entry `json:"benchmarks"`
	}{GoMaxProcs: runtime.GOMAXPROCS(0)}
	const reps = 3
	best := func(f func()) int64 {
		var b time.Duration
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			f()
			if el := time.Since(t0); r == 0 || el < b {
				b = el
			}
		}
		return b.Nanoseconds()
	}
	for _, n := range []int{1_000, 10_000, 100_000} {
		facts := storeBenchFacts(n)
		report.Benchmarks = append(report.Benchmarks, entry{
			Name: fmt.Sprintf("SegmentStore/MemoryAdd/n=%d", n), N: n,
			NsPerOp: best(func() {
				d := database.New()
				for _, a := range facts {
					d.Add(a)
				}
			}),
		})
		report.Benchmarks = append(report.Benchmarks, entry{
			Name: fmt.Sprintf("SegmentStore/AddCommit/n=%d", n), N: n,
			NsPerOp: best(func() {
				s, err := segment.Open(t.TempDir(), segment.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range facts {
					s.Add(a)
				}
				if _, err := s.Commit(); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}),
		})
		for _, mode := range []struct {
			name    string
			compact bool
		}{{"ColdOpenWAL", false}, {"ColdOpenSnapshot", true}} {
			dir, bytes, _ := seedSegmentDir(t, n, mode.compact)
			report.Benchmarks = append(report.Benchmarks, entry{
				Name: fmt.Sprintf("SegmentStore/%s/n=%d", mode.name, n), N: n, DiskBytes: bytes,
				NsPerOp: best(func() {
					s, err := segment.Open(dir, segment.Options{})
					if err != nil {
						t.Fatal(err)
					}
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
				}),
			})
		}
		dir, _, wantLen := seedSegmentDir(t, n, false)
		s, err := segment.Open(dir, segment.Options{})
		if err != nil {
			t.Fatal(err)
		}
		report.Benchmarks = append(report.Benchmarks, entry{
			Name: fmt.Sprintf("SegmentStore/Clone/n=%d", n), N: n,
			NsPerOp: best(func() {
				if s.Clone().Len() != wantLen {
					t.Fatal("bad clone")
				}
			}),
		})
		s.Close()
	}
	// The gen corpora keep the emitter honest about adversarial names:
	// one round-trip over NUL-embedding constants must survive framing.
	adv := gen.AdversarialNames(64, 1)
	dir := t.TempDir()
	s, err := segment.Open(dir, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range adv.UserFacts() {
		s.Add(a)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r, err := segment.Open(dir, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Clone().String() != adv.String() {
		t.Fatal("adversarial corpus did not survive the journal round-trip")
	}
	r.Close()

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_store.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_store.json (%d entries)", len(report.Benchmarks))
}
