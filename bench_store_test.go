package guardedrules

// Persistence-layer benchmarks (DESIGN.md §13, EXPERIMENTS.md A11): the
// append-only segment store vs the plain in-memory database. Three
// costs matter for serving: journaled write throughput (the mutation
// path pays it per batch), cold-open latency (boot pays it per DB, by
// replaying the WAL), and the cost of publishing an
// immutable served version: a copy-on-write clone, whose copying lands
// on the first write to each relation (the CloneThenWrite row).
// BENCH_store.json records the trajectory (see TestEmitStoreBenchJSON).

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/gen"
	"guardedrules/internal/parser"
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

// cloneWriteFact returns a cites fact over known constants that d lacks.
// cites is the largest user relation of storeBenchFacts, so an Add of
// this fact into a fresh clone pays the deferred copy of that relation
// and of the ACDom counts, but interns nothing.
func cloneWriteFact(d *database.Database) core.Atom {
	for i := 0; ; i++ {
		p := core.Const(fmt.Sprintf("p%d", i))
		if a := core.NewAtom("cites", p, p); !d.Has(a) {
			return a
		}
	}
}

// heapPerFact returns the live heap bytes per fact that an in-memory
// database of the binary relation E(v0,v1), ..., E(v(n-1),vn) retains,
// its n+1 ACDom facts and interned terms included. The facts are built
// inside the measured region, so nothing but the database keeps them.
func heapPerFact(n int) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := database.New()
	for i := 0; i < n; i++ {
		d.Add(core.NewAtom("E", core.Const(fmt.Sprintf("v%d", i)), core.Const(fmt.Sprintf("v%d", i+1))))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	return (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(n)
}

// seedSegmentDir populates a fresh store directory with n committed
// user facts and returns its path, its on-disk size in bytes, and the
// total fact count (user facts plus derived ACDom bookkeeping).
func seedSegmentDir(tb testing.TB, n int) (string, int64, int) {
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
// from the WAL, and the served-version clone. CI emits the trajectory
// as the BENCH_store.json artifact (TestEmitStoreBenchJSON).
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
		b.Run(fmt.Sprintf("ColdOpenWAL/n=%d", n), func(b *testing.B) {
			dir, _, _ := seedSegmentDir(b, n)
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
		b.Run(fmt.Sprintf("Clone/n=%d", n), func(b *testing.B) {
			dir, _, wantLen := seedSegmentDir(b, n)
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
		b.Run(fmt.Sprintf("CloneThenWrite/n=%d", n), func(b *testing.B) {
			dir, _, _ := seedSegmentDir(b, n)
			s, err := segment.Open(dir, segment.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			fact := cloneWriteFact(s.Clone())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !s.Clone().Add(fact) {
					b.Fatal("write into the clone was not new")
				}
			}
		})
	}
}

// storeBenchRuns is the number of timed runs per configuration.
const storeBenchRuns = 11

// ingestChainFacts renders the load text of servebench's ingest_durable
// workload: disjoint E-chains of `edges` edges each, with an A fact on
// every node but the last. It is a copy of servebench's chainFacts, not
// an import, because servebench is a separate module.
func ingestChainFacts(prefix string, chains, edges int) string {
	node := func(c, k int) string { return fmt.Sprintf("%s%d_%d", prefix, c, k) }
	var b strings.Builder
	for c := 0; c < chains; c++ {
		for k := 0; k < edges; k++ {
			fmt.Fprintf(&b, "E(%s,%s). A(%s). ", node(c, k), node(c, k+1), node(c, k))
		}
	}
	return b.String()
}

// TestEmitStoreBenchJSON times the BenchmarkSegmentStore configurations
// and one durable load of servebench's ingest_durable shape, and writes
// BENCH_store.json: per configuration the median and quartiles of
// storeBenchRuns runs and the heap allocations per run, plus the
// on-disk WAL footprint per fact count and the in-memory heap footprint
// per fact (heapPerFact). Every Ingest/chain2500 row starts from the
// load text: Parse parses it, Build also builds the in-memory database,
// Journaled instead opens a fresh store, adds every fact, commits and
// closes, as a durable server load does. Only runs when EMIT_BENCH=1 is
// set:
//
//	EMIT_BENCH=1 go test -run TestEmitStoreBenchJSON .
func TestEmitStoreBenchJSON(t *testing.T) {
	if os.Getenv("EMIT_BENCH") != "1" {
		t.Skip("set EMIT_BENCH=1 to refresh BENCH_store.json")
	}
	type entry struct {
		Name         string `json:"name"`
		N            int    `json:"n"`
		MedianNs     int64  `json:"median_ns,omitempty"`
		Q1Ns         int64  `json:"q1_ns,omitempty"`
		Q3Ns         int64  `json:"q3_ns,omitempty"`
		AllocsPerOp  uint64 `json:"allocs_per_op,omitempty"`
		DiskBytes    int64  `json:"disk_bytes,omitempty"`
		BytesPerFact int64  `json:"bytes_per_fact,omitempty"`
	}
	report := struct {
		Command    string  `json:"command"`
		GoMaxProcs int     `json:"gomaxprocs"`
		NumCPU     int     `json:"num_cpu"`
		Runs       int     `json:"runs"`
		Benchmarks []entry `json:"benchmarks"`
	}{
		Command:    "EMIT_BENCH=1 go test -run TestEmitStoreBenchJSON .",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Runs:       storeBenchRuns,
	}
	measure := func(name string, n int, f func()) entry {
		f() // warm-up, untimed
		times := make([]int64, storeBenchRuns)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := range times {
			t0 := time.Now()
			f()
			times[r] = time.Since(t0).Nanoseconds()
		}
		runtime.ReadMemStats(&after)
		e := entry{Name: name, N: n, AllocsPerOp: (after.Mallocs - before.Mallocs) / storeBenchRuns}
		e.MedianNs, e.Q1Ns, e.Q3Ns = quartiles(times)
		return e
	}
	addCommit := func(dir string, facts []core.Atom) {
		s, err := segment.Open(dir, segment.Options{})
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
	}
	parse := func(src string) []core.Atom {
		atoms, err := parser.ParseFacts(src)
		if err != nil {
			t.Fatal(err)
		}
		return atoms
	}
	const chains, edges = 125, 10
	src := ingestChainFacts("kbenchc", chains, edges)
	loads, loadDir := 0, t.TempDir()
	report.Benchmarks = append(report.Benchmarks,
		measure("Ingest/chain2500/Parse", 2*chains*edges, func() { parse(src) }),
		measure("Ingest/chain2500/Build", 2*chains*edges, func() { database.FromAtoms(parse(src)) }),
		measure("Ingest/chain2500/Journaled", 2*chains*edges, func() {
			loads++
			addCommit(filepath.Join(loadDir, strconv.Itoa(loads)), parse(src))
		}))
	for _, n := range []int{1_000, 10_000, 100_000} {
		facts := storeBenchFacts(n)
		report.Benchmarks = append(report.Benchmarks,
			measure(fmt.Sprintf("SegmentStore/MemoryAdd/n=%d", n), n, func() {
				d := database.New()
				for _, a := range facts {
					d.Add(a)
				}
			}),
			measure(fmt.Sprintf("SegmentStore/AddCommit/n=%d", n), n, func() { addCommit(t.TempDir(), facts) }))
		dir, bytes, wantLen := seedSegmentDir(t, n)
		open := measure(fmt.Sprintf("SegmentStore/ColdOpenWAL/n=%d", n), n, func() {
			s, err := segment.Open(dir, segment.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
		open.DiskBytes = bytes
		s, err := segment.Open(dir, segment.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fact := cloneWriteFact(s.Clone())
		report.Benchmarks = append(report.Benchmarks, open,
			measure(fmt.Sprintf("SegmentStore/Clone/n=%d", n), n, func() {
				if s.Clone().Len() != wantLen {
					t.Fatal("bad clone")
				}
			}),
			measure(fmt.Sprintf("SegmentStore/CloneThenWrite/n=%d", n), n, func() {
				if !s.Clone().Add(fact) {
					t.Fatal("write into the clone was not new")
				}
			}))
		s.Close()
	}
	const heapN = 100_000
	report.Benchmarks = append(report.Benchmarks, entry{
		Name: fmt.Sprintf("SegmentStore/HeapPerFact/n=%d", heapN), N: heapN,
		BytesPerFact: heapPerFact(heapN),
	})
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
