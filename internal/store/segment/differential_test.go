package segment

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"guardedrules/internal/chase"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/gen"
	"guardedrules/internal/parser"
)

// tcTheory is plain Datalog transitive closure over the random-corpus
// signature (binary R).
var tcTheory = parser.MustParseTheory(`
	R(X,Y) -> T(X,Y).
	T(X,Y), T(Y,Z) -> T(X,Z).
`)

// seedStores builds three equivalent stores from one corpus: the plain
// in-memory reference, a live segment store fed the same op sequence,
// and the same segment store reopened from disk (exercising replay).
// A few retractions are interleaved so the swap-remove enumeration
// history is part of what replay must reproduce.
func seedStores(t *testing.T, corpus *database.Database) (ref *database.Database, live, reopened *Store) {
	t.Helper()
	dir := t.TempDir()
	live = mustOpen(t, dir)
	ref = database.New()
	atoms := corpus.UserFacts()
	for i, a := range atoms {
		ref.Add(a)
		live.Add(a)
		if i%5 == 4 {
			// Retract an earlier fact on both sides: enumeration order now
			// depends on swap-remove history, which replay must preserve.
			victim := atoms[i-2]
			ref.Retract(victim)
			live.Retract(victim)
		}
	}
	if _, err := live.Commit(); err != nil {
		t.Fatal(err)
	}
	// Reopen from a copy of the directory so both handles stay usable.
	cdir := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cdir, e.Name()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reopened = mustOpen(t, cdir)
	return ref, live, reopened
}

// Engines produce byte-identical results over the plain in-memory
// database and over clones of the segment store, live or reopened from
// disk, at any worker count, over regular and adversarially named
// corpora.
func TestEngineTwoStoreDifferential(t *testing.T) {
	corpora := map[string]*database.Database{
		"ab":          gen.ABDatabase(40, 1),
		"adversarial": gen.AdversarialNames(40, 2),
		"citations":   gen.CitationGraph(15),
	}
	guarded := gen.RandomGuardedTheory(6, 3)
	for name, corpus := range corpora {
		t.Run(name, func(t *testing.T) {
			ref, live, reopened := seedStores(t, corpus)
			assertMirrors(t, live, ref)
			assertMirrors(t, reopened, ref)
			stores := map[string]*database.Database{"memory": ref, "segment": live.Clone(), "reopened": reopened.Clone()}

			for _, workers := range []int{1, 4} {
				// Datalog fixpoint.
				var wantDL string
				for _, sn := range []string{"memory", "segment", "reopened"} {
					out, err := datalog.EvalSemiNaiveOpts(tcTheory, stores[sn], datalog.Options{Workers: workers})
					if err != nil {
						t.Fatalf("%s workers=%d: %v", sn, workers, err)
					}
					if sn == "memory" {
						wantDL = out.String()
					} else if got := out.String(); got != wantDL {
						t.Fatalf("datalog over %s store diverges at workers=%d:\n%s\nwant:\n%s", sn, workers, got, wantDL)
					}
				}
				// Restricted chase of a guarded existential theory.
				var wantCh string
				for _, sn := range []string{"memory", "segment", "reopened"} {
					res, err := chase.Run(guarded, stores[sn],
						chase.Options{Variant: chase.Restricted, MaxDepth: 2, Workers: workers, MaxFacts: 200_000})
					if err != nil {
						t.Fatalf("chase %s workers=%d: %v", sn, workers, err)
					}
					if sn == "memory" {
						wantCh = res.DB.String()
					} else if got := res.DB.String(); got != wantCh {
						t.Fatalf("chase over %s store diverges at workers=%d", sn, workers)
					}
				}
			}
			// The inputs themselves must be untouched: engines clone at
			// entry, they never mutate the database they were handed.
			for sn, d := range stores {
				if got, want := d.String(), ref.String(); got != want {
					t.Fatalf("engines mutated the %s input", sn)
				}
			}
			assertMirrors(t, live, ref)
			assertMirrors(t, reopened, ref)
		})
	}
}

// Crash-recovery differential: kill the store mid-commit at injected
// offsets, reopen, and assert the recovered store is byte-identical to
// the committed prefix — and that engines derive identical fixpoints
// from it at worker counts 1 and 4.
func TestCrashRecoveryEngineDifferential(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	ref := database.New()
	c := func(i int) core.Term { return core.Const(fmt.Sprintf("n%d", i)) }

	// Scripted mutation history: a growing R-graph with periodic
	// retractions, one commit per batch, recording the log offset each
	// commit ends at.
	var offsets []int64
	var want []*database.Database
	walPath := filepath.Join(dir, walName(0))
	for batch := 0; batch < 8; batch++ {
		for j := 0; j < 4; j++ {
			a := core.NewAtom("R", c(batch), c((batch+j+1)%9))
			s.Add(a)
			ref.Add(a)
		}
		if batch%3 == 2 {
			victim := core.NewAtom("R", c(batch-1), c(batch%9))
			s.Retract(victim)
			ref.Retract(victim)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, fi.Size())
		want = append(want, ref.Clone())
	}
	s.Close()
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// Injected kill offsets: every commit boundary, plus torn cuts just
	// before and after each boundary (mid-record on both sides).
	cuts := map[int64]bool{int64(len(full)): true}
	for _, off := range offsets {
		cuts[off] = true
		if off >= 3 {
			cuts[off-3] = true
		}
		if off+5 <= int64(len(full)) {
			cuts[off+5] = true
		}
	}
	for cut := range cuts {
		expVersion := uint64(0)
		exp := database.New()
		for i, off := range offsets {
			if off <= cut {
				expVersion = uint64(i + 1)
				exp = want[i]
			}
		}
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, walName(0)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(cdir, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if r.Version() != expVersion {
			t.Fatalf("cut %d: recovered version %d, want %d", cut, r.Version(), expVersion)
		}
		// Byte-identical recovered state: String, InternEpoch, stats.
		assertMirrors(t, r, exp)

		// Engine differential on the recovered store at both worker
		// counts, against the never-crashed reference prefix.
		for _, workers := range []int{1, 4} {
			wantOut, err := datalog.EvalSemiNaiveOpts(tcTheory, exp, datalog.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			gotOut, err := datalog.EvalSemiNaiveOpts(tcTheory, r.Clone(), datalog.Options{Workers: workers})
			if err != nil {
				t.Fatalf("cut %d workers=%d: %v", cut, workers, err)
			}
			if gotOut.String() != wantOut.String() {
				t.Fatalf("cut %d workers=%d: recovered store answers diverge from committed prefix", cut, workers)
			}
		}
		r.Close()
	}
}
