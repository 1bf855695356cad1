package segment

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"unsafe"

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
	walPath := filepath.Join(dir, walFile)
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
		if err := os.WriteFile(filepath.Join(cdir, walFile), full[:cut], 0o644); err != nil {
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
		fi, err := os.Stat(filepath.Join(cdir, walFile))
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
	fi, _ := os.Stat(filepath.Join(dir, walFile))
	firstCommit := fi.Size()
	s.Add(core.NewAtom("P", core.Const("b")))
	s.Commit()
	s.Close()

	path := filepath.Join(dir, walFile)
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

// The log keeps its name and record bytes, so every directory a store
// has written reopens unchanged.
func TestLogFormatPinned(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.Add(core.NewAtom("E", core.Const("a"), core.NewNull("n1")))
	s.Add(core.NewAtom(core.ACDom, core.Const("z")))
	s.Retract(core.NewAtom("E", core.Const("a"), core.NewNull("n1")))
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 || entries[0].Name() != "wal-000000.log" {
		t.Fatalf("store files %v (%v), want only wal-000000.log", entries, err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "wal-000000.log"))
	if err != nil {
		t.Fatal(err)
	}
	const want = "00000003010061c436e2eb0000000401016e31329a945d00000006020000000245c88ad7350000000d03000000000000000000000001c5b91ada0000000301007a4e532b070000000a02000000014143446f6d66e4a255000000090300000001000000020cea60f70000000d04000000000000000000000001b8ca1c8200000009050000000000000001db996177"
	if hex.EncodeToString(got) != want {
		t.Fatalf("log bytes\n got %x\nwant %s", got, want)
	}
}

// A snapshot or a log of another generation fails the open with an
// error naming the file, and stays on disk.
func TestOpenRejectsForeignFiles(t *testing.T) {
	for _, name := range []string{"snapshot-000001.seg", "wal-000001.log"} {
		dir := t.TempDir()
		s := mustOpen(t, dir)
		s.Add(core.NewAtom("P", core.Const("a")))
		s.Commit()
		s.Close()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("%s: Open error %v, want one naming %s", name, err, path)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
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

// The store's relation table keeps its own copy of each relation name:
// a store held open by a server never pins the request body its facts
// were parsed from. (The mirror's own copies are database's concern.)
func TestRelTablePinsNoSource(t *testing.T) {
	src := "E(a,b). A[n](a)."
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	for _, a := range parser.MustParseFacts(src) {
		s.Add(a)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	for _, rk := range s.relKeys {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(rk.Name))); p >= lo && p < lo+uintptr(len(src)) {
			t.Errorf("relation %v points into the source", rk)
		}
	}
}
