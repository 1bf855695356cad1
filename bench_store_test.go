package guardedrules

// Persistence-layer benchmarks (DESIGN.md §13, EXPERIMENTS.md A11): the
// append-only segment store vs the plain in-memory database. Three
// costs matter for serving: journaled write throughput (the mutation
// path pays it per batch), cold-open latency (boot pays it per DB, by
// replaying the WAL), and the cost of publishing an
// immutable served version: a copy-on-write clone, whose copying lands
// on the first write to each relation (the CloneThenWrite row).
// BENCH_store.json records their rows (see TestEmitBenchJSON).

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
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

// seedSegmentDir commits the n-fact workload to a fresh store directory
// and returns its path, its size on disk in bytes, and its fact count
// (user facts plus derived ACDom facts). It reopens the store once to
// check that count, outside any timed region, so the cold-open rows time
// Open+Close alone.
func seedSegmentDir(b *testing.B, n int) (string, int64, int) {
	dir := b.TempDir()
	facts := storeBenchFacts(n)
	addCommit(b, dir, facts)
	r, err := segment.Open(dir, segment.Options{})
	if err != nil {
		b.Fatal(err)
	}
	wantLen := database.FromAtoms(facts).Len()
	if got := r.Clone().Len(); got != wantLen {
		b.Fatalf("opened %d facts, want %d", got, wantLen)
	}
	if err := r.Close(); err != nil {
		b.Fatal(err)
	}
	var bytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			b.Fatal(err)
		}
		bytes += fi.Size()
	}
	return dir, bytes, wantLen
}

// addCommit opens a fresh store in dir, adds facts, commits and closes.
func addCommit(b *testing.B, dir string, facts []core.Atom) {
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

// BenchmarkSegmentStore measures the persistent store against the
// in-memory baseline: journaled add+commit vs plain adds, cold open
// from the WAL (with the WAL's size on disk), the served-version clone
// alone and followed by one write, and the live heap per fact of an
// in-memory database (heapPerFact).
func BenchmarkSegmentStore(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
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
				addCommit(b, dir, facts)
			}
		})
		dir, bytes, wantLen := seedSegmentDir(b, n)
		b.Run(fmt.Sprintf("ColdOpenWAL/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := segment.Open(dir, segment.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bytes), "disk_bytes")
		})
		s, err := segment.Open(dir, segment.Options{})
		if err != nil {
			b.Fatal(err)
		}
		fact := cloneWriteFact(s.Clone())
		b.Run(fmt.Sprintf("Clone/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if s.Clone().Len() != wantLen {
					b.Fatal("bad clone")
				}
			}
		})
		b.Run(fmt.Sprintf("CloneThenWrite/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !s.Clone().Add(fact) {
					b.Fatal("write into the clone was not new")
				}
			}
		})
		s.Close()
	}
	const heapN = 100_000
	b.Run(fmt.Sprintf("HeapPerFact/n=%d", heapN), func(b *testing.B) {
		var perFact int64
		for i := 0; i < b.N; i++ {
			perFact = heapPerFact(heapN)
		}
		b.ReportMetric(float64(perFact), "heap_bytes_per_fact")
	})
}

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

// BenchmarkIngest times one load of servebench's ingest_durable shape,
// 2,500 facts of disjoint E-chains, each starting from the load text:
// Parse parses it, Build also builds the in-memory database, Journaled
// instead opens a fresh store, adds every fact, commits and closes, as a
// durable server load does.
func BenchmarkIngest(b *testing.B) {
	src := ingestChainFacts("kbenchc", 125, 10)
	parse := func(b *testing.B) []core.Atom {
		atoms, err := parser.ParseFacts(src)
		if err != nil {
			b.Fatal(err)
		}
		return atoms
	}
	loads, loadDir := 0, b.TempDir()
	for _, c := range []struct {
		name string
		load func(b *testing.B)
	}{
		{"Parse", func(b *testing.B) { parse(b) }},
		{"Build", func(b *testing.B) { database.FromAtoms(parse(b)) }},
		{"Journaled", func(b *testing.B) {
			loads++
			addCommit(b, filepath.Join(loadDir, strconv.Itoa(loads)), parse(b))
		}},
	} {
		b.Run("chain2500/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.load(b)
			}
			b.ReportMetric(float64(len(parse(b))), "facts")
		})
	}
}
