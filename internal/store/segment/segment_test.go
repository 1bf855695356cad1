package segment

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/parser"
)

// assertMirrors asserts that the observable surface of s's clone — the
// sorted fact listing, the intern epoch, and the per-relation stats —
// matches want.
func assertMirrors(t *testing.T, s *Store, want *database.Database) {
	t.Helper()
	got := s.Clone()
	if g, w := got.String(), want.String(); g != w {
		t.Fatalf("state mismatch:\n got:\n%s\nwant:\n%s", g, w)
	}
	if g, w := got.InternEpoch(), want.InternEpoch(); g != w {
		t.Fatalf("InternEpoch = %d, want %d", g, w)
	}
	if g, w := got.Len(), want.Len(); g != w {
		t.Fatalf("Len = %d, want %d", g, w)
	}
	rks := want.Relations()
	sort.Slice(rks, func(i, j int) bool { return rks[i].Name < rks[j].Name })
	for _, rk := range rks {
		if g, w := got.RelSize(rk), want.RelSize(rk); g != w {
			t.Fatalf("RelSize(%s) = %d, want %d", rk, g, w)
		}
		for p := 0; p < rk.Arity+rk.AnnArity; p++ {
			if g, w := got.DistinctAt(rk, p), want.DistinctAt(rk, p); g != w {
				t.Fatalf("DistinctAt(%s,%d) = %d, want %d", rk, p, g, w)
			}
		}
	}
	for id := 0; id < want.InternEpoch(); id++ {
		tm := want.Term(uint32(id))
		if got.Term(uint32(id)) != tm {
			t.Fatalf("Term(%d) = %v, want %v", id, got.Term(uint32(id)), tm)
		}
		if g, w := got.ACDomSupport(tm), want.ACDomSupport(tm); g != w {
			t.Fatalf("ACDomSupport(%v) = %d, want %d", tm, g, w)
		}
		if g, w := got.ACDomPinned(tm), want.ACDomPinned(tm); g != w {
			t.Fatalf("ACDomPinned(%v) = %v, want %v", tm, g, w)
		}
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	ref := database.New()
	for _, a := range parser.MustParseFacts(`
		Edge(a, b). Edge(b, c). Label[x, y](a). P().
	`) {
		s.Add(a)
		ref.Add(a)
	}
	s.Retract(core.NewAtom("Edge", core.Const("b"), core.Const("c")))
	ref.Retract(core.NewAtom("Edge", core.Const("b"), core.Const("c")))
	if v, err := s.Commit(); err != nil || v != 1 {
		t.Fatalf("Commit = %d, %v", v, err)
	}
	assertMirrors(t, s, ref)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := mustOpen(t, dir)
	defer r.Close()
	if r.Version() != 1 {
		t.Fatalf("Version = %d, want 1", r.Version())
	}
	assertMirrors(t, r, ref)
}

func TestUncommittedDiscarded(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.Add(core.NewAtom("P", core.Const("a")))
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Add(core.NewAtom("P", core.Const("b"))) // never committed
	s.Close()

	r := mustOpen(t, dir)
	defer r.Close()
	got := r.Clone()
	if !got.Has(core.NewAtom("P", core.Const("a"))) {
		t.Fatal("committed fact lost")
	}
	if got.Has(core.NewAtom("P", core.Const("b"))) {
		t.Fatal("uncommitted fact survived reopen")
	}
}

// TestTornTailTruncation crashes the log at every byte offset and checks
// that reopening always recovers exactly the longest committed prefix.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	var want []*database.Database // reference state after commit i
	var offsets []int64           // log size after commit i
	ref := database.New()
	batches := parser.MustParseFacts(`
		Edge(a, b). Edge(b, c). Edge(c, a). Tri(a, b, c). Edge(a, b).
	`)
	walPath := filepath.Join(dir, walName(0))
	for i, a := range batches {
		s.Add(a)
		ref.Add(a)
		if i == 2 {
			s.Retract(core.NewAtom("Edge", core.Const("a"), core.Const("b")))
			ref.Retract(core.NewAtom("Edge", core.Const("a"), core.Const("b")))
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, ref.Clone())
		offsets = append(offsets, fi.Size())
	}
	s.Close()
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	for cut := int64(0); cut <= int64(len(full)); cut++ {
		// State expected at this cut: the last commit at or before it.
		exp := database.New()
		expVersion := uint64(0)
		for i, off := range offsets {
			if off <= cut {
				exp = want[i]
				expVersion = uint64(i + 1)
			}
		}
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, walName(0)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(cdir, Options{})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if r.Version() != expVersion {
			t.Fatalf("cut %d: Version = %d, want %d", cut, r.Version(), expVersion)
		}
		assertMirrors(t, r, exp)
		// The torn tail must be gone from disk.
		fi, err := os.Stat(filepath.Join(cdir, walName(0)))
		if err != nil {
			t.Fatal(err)
		}
		if len(offsets) > 0 && expVersion > 0 && fi.Size() != offsets[expVersion-1] {
			t.Fatalf("cut %d: truncated size %d, want %d", cut, fi.Size(), offsets[expVersion-1])
		}
		r.Close()
	}
}

// TestCorruptRecordTruncated flips a byte after the first commit: the
// damaged suffix must be discarded, the committed prefix kept.
func TestCorruptRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.Add(core.NewAtom("P", core.Const("a")))
	s.Commit()
	fi, _ := os.Stat(filepath.Join(dir, walName(0)))
	firstCommit := fi.Size()
	s.Add(core.NewAtom("P", core.Const("b")))
	s.Commit()
	s.Close()

	path := filepath.Join(dir, walName(0))
	raw, _ := os.ReadFile(path)
	raw[firstCommit+5] ^= 0xff
	os.WriteFile(path, raw, 0o644)

	r := mustOpen(t, dir)
	defer r.Close()
	if r.Version() != 1 {
		t.Fatalf("Version = %d, want 1", r.Version())
	}
	if r.Clone().Has(core.NewAtom("P", core.Const("b"))) {
		t.Fatal("fact behind corrupt record survived")
	}
}

// TestACDomPinReplay exercises the pinned-ACDom lifecycle across a
// reopen, including the unpin-while-supported retraction whose only
// effect is the pin removal (Retract returns false).
func TestACDomPinReplay(t *testing.T) {
	type mutator interface {
		Add(core.Atom) bool
		Retract(core.Atom) bool
	}
	for stop := 1; stop <= 4; stop++ {
		dir := t.TempDir()
		s := mustOpen(t, dir)
		ref := database.New()
		steps := []func(mutator){
			func(d mutator) { d.Add(core.NewAtom("P", core.Const("a"))) },
			func(d mutator) { d.Add(core.NewAtom(core.ACDom, core.Const("a"))) },
			func(d mutator) { d.Retract(core.NewAtom(core.ACDom, core.Const("a"))) },
			func(d mutator) { d.Retract(core.NewAtom("P", core.Const("a"))) },
		}
		for i := 0; i < stop; i++ {
			steps[i](s)
			steps[i](ref)
		}
		s.Commit()
		s.Close()
		r := mustOpen(t, dir)
		assertMirrors(t, r, ref)
		r.Close()
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	ref := database.New()
	for _, a := range parser.MustParseFacts(`
		Edge(a, b). Edge(b, c). Edge(c, d). Mark(b).
	`) {
		s.Add(a)
		ref.Add(a)
	}
	// Retractions create swap-remove history the snapshot must preserve.
	s.Retract(core.NewAtom("Edge", core.Const("a"), core.Const("b")))
	ref.Retract(core.NewAtom("Edge", core.Const("a"), core.Const("b")))
	s.Add(core.NewAtom(core.ACDom, core.Const("z"))) // pinned, unsupported
	ref.Add(core.NewAtom(core.ACDom, core.Const("z")))
	s.Commit()
	v := s.Version()
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if s.Version() != v {
		t.Fatalf("Compact changed version: %d → %d", v, s.Version())
	}
	assertMirrors(t, s, ref)
	// Post-compact mutations land in the new generation's log.
	s.Add(core.NewAtom("Mark", core.Const("c")))
	ref.Add(core.NewAtom("Mark", core.Const("c")))
	s.Commit()
	s.Close()

	r := mustOpen(t, dir)
	defer r.Close()
	assertMirrors(t, r, ref)
	if r.Version() != v+1 {
		t.Fatalf("Version = %d, want %d", r.Version(), v+1)
	}
	// Old generation files must be gone.
	if _, err := os.Stat(filepath.Join(dir, walName(0))); !os.IsNotExist(err) {
		t.Fatalf("wal of generation 0 still present: %v", err)
	}
	// Enumeration order must survive the snapshot: compare Facts order
	// against a store that never compacted.
	ek := core.RelKey{Name: "Edge", Arity: 2}
	gotOrder := r.Clone().Facts(ek)
	wantOrder := ref.Facts(ek)
	for i := range wantOrder {
		if gotOrder[i].String() != wantOrder[i].String() {
			t.Fatalf("enumeration order diverged at %d: %s vs %s", i, gotOrder[i], wantOrder[i])
		}
	}
}

// TestInterruptedCompact simulates a crash between snapshot publication
// and old-file cleanup: a stale previous-generation log must not be
// replayed on top of the new snapshot.
func TestInterruptedCompact(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.Add(core.NewAtom("P", core.Const("a")))
	s.Retract(core.NewAtom("P", core.Const("a")))
	s.Add(core.NewAtom("Q", core.Const("b")))
	s.Commit()
	ref := s.Clone()
	s.Compact()
	s.Close()
	// Resurrect a stale generation-0 log and a leftover tmp file, as an
	// interrupted compaction could leave behind.
	os.WriteFile(filepath.Join(dir, walName(0)), []byte("garbage"), 0o644)
	os.WriteFile(filepath.Join(dir, snapName(2)+".tmp"), []byte("partial"), 0o644)

	r := mustOpen(t, dir)
	defer r.Close()
	assertMirrors(t, r, ref)
	if _, err := os.Stat(filepath.Join(dir, walName(0))); !os.IsNotExist(err) {
		t.Fatal("stale generation-0 log not removed")
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(2)+".tmp")); !os.IsNotExist(err) {
		t.Fatal("leftover tmp not removed")
	}
}

func TestPackKeyOrderPreserving(t *testing.T) {
	tuples := [][]uint32{
		{0}, {1}, {255}, {256}, {1 << 16}, {1<<31 + 5},
		{0, 0}, {0, 1}, {1, 0}, {255, 256}, {256, 255},
	}
	type entry struct {
		relID uint32
		ids   []uint32
	}
	var entries []entry
	for _, relID := range []uint32{0, 1, 300} {
		for _, ids := range tuples {
			entries = append(entries, entry{relID, ids})
		}
	}
	less := func(a, b entry) bool {
		if a.relID != b.relID {
			return a.relID < b.relID
		}
		for i := 0; i < len(a.ids) && i < len(b.ids); i++ {
			if a.ids[i] != b.ids[i] {
				return a.ids[i] < b.ids[i]
			}
		}
		return len(a.ids) < len(b.ids)
	}
	for _, a := range entries {
		for _, b := range entries {
			ka := PackKey(nil, a.relID, a.ids)
			kb := PackKey(nil, b.relID, b.ids)
			cmp := bytes.Compare(ka, kb)
			switch {
			case less(a, b) && cmp >= 0 && len(a.ids) == len(b.ids):
				t.Fatalf("PackKey not order-preserving: %v < %v but cmp=%d", a, b, cmp)
			case less(b, a) && cmp <= 0 && len(a.ids) == len(b.ids):
				t.Fatalf("PackKey not order-preserving: %v > %v but cmp=%d", a, b, cmp)
			}
		}
	}
	relID, ids, ok := UnpackKey(PackKey(nil, 7, []uint32{3, 9}))
	if !ok || relID != 7 || len(ids) != 2 || ids[0] != 3 || ids[1] != 9 {
		t.Fatalf("UnpackKey roundtrip: %d %v %v", relID, ids, ok)
	}
}

// TestAdversarialNames journals terms and relations whose names contain
// newlines, NULs, and multi-byte runes: framing must be length-driven.
func TestAdversarialNames(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	ref := database.New()
	nasty := []string{"a\nb", "c\x00d", "héllo→世界", `"quoted"`, "back\\slash", ""}
	for i, n := range nasty {
		a := core.NewAtom("R\n\x00"+n, core.Const(n), core.NewNull("n\x00"+n))
		if i%2 == 0 {
			a.Annotation = []core.Term{core.Const("ann" + n)}
		}
		s.Add(a)
		ref.Add(a)
	}
	s.Commit()
	s.Close()
	r := mustOpen(t, dir)
	defer r.Close()
	assertMirrors(t, r, ref)
}

func TestCloseDiscardsWrites(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.Add(core.NewAtom("P", core.Const("a")))
	s.Commit()
	s.Close()
	if s.Add(core.NewAtom("P", core.Const("b"))) {
		t.Fatal("Add succeeded on closed store")
	}
	if s.Retract(core.NewAtom("P", core.Const("a"))) {
		t.Fatal("Retract succeeded on closed store")
	}
	if _, err := s.Commit(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit on closed store = %v, want ErrClosed", err)
	}
	if !s.Clone().Has(core.NewAtom("P", core.Const("a"))) {
		t.Fatal("Clone must keep working after Close")
	}
}
