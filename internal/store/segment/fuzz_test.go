package segment

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"guardedrules/internal/core"
	"guardedrules/internal/parser"
)

// seedStore builds a real store directory — a compacted snapshot plus a
// write-ahead log holding committed adds, a retraction and an
// uncommitted tail — and returns the bytes of both files.
func seedStore(f *testing.F) (snap, wal []byte) {
	dir := f.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for _, a := range parser.MustParseFacts(`Edge(a,b). Edge(b,c). Mark(b). R(a,_:n1).`) {
		s.Add(a)
	}
	s.Add(core.NewAtom(core.ACDom, core.Const("z")))
	if _, err := s.Commit(); err != nil {
		f.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		f.Fatal(err)
	}
	s.Retract(core.NewAtom("Edge", core.Const("a"), core.Const("b")))
	s.Add(core.NewAtom("Edge", core.Const("c"), core.Const("d")))
	if _, err := s.Commit(); err != nil {
		f.Fatal(err)
	}
	s.Add(core.NewAtom("Mark", core.Const("d")))
	s.w.Flush() // leave the uncommitted record on disk, as a crash would
	s.Close()
	if snap, err = os.ReadFile(filepath.Join(dir, snapName(1))); err != nil {
		f.Fatal(err)
	}
	if wal, err = os.ReadFile(filepath.Join(dir, walName(1))); err != nil {
		f.Fatal(err)
	}
	return snap, wal
}

// frames splits b at its record boundaries as far as the length headers
// allow; an overrunning or trailing remainder becomes the last chunk.
func frames(b []byte) [][]byte {
	var out [][]byte
	for len(b) >= 8 {
		n := int(binary.BigEndian.Uint32(b)) + 8
		if n < 8 || n > len(b) {
			break
		}
		out = append(out, b[:n])
		b = b[n:]
	}
	if len(b) > 0 {
		out = append(out, b)
	}
	return out
}

// reorder swaps records i and j of b (a no-op when either is missing).
func reorder(b []byte, i, j int) []byte {
	fr := frames(b)
	if i == j || i >= len(fr) || j >= len(fr) {
		return b
	}
	fr[i], fr[j] = fr[j], fr[i]
	var out []byte
	for _, r := range fr {
		out = append(out, r...)
	}
	return out
}

// FuzzOpen feeds Open damaged store directories: arbitrary bytes, a bit
// flip anywhere in the snapshot or the log (flip-1 is the bit index over
// both files), and two reordered records in either file (swap selects
// the file and the record pair). Open must either recover — and a
// reopen of the recovered store must reproduce its state exactly — or
// fail with an error wrapping errCorrupt. It must never panic or hang.
// An empty snapshot means a store that never compacted (generation 0).
//
//	go test -run '^$' -fuzz '^FuzzOpen$' -fuzztime 20s ./internal/store/segment
func FuzzOpen(f *testing.F) {
	snap, wal := seedStore(f)
	f.Add(snap, wal, uint32(0), uint16(0))
	f.Add([]byte(nil), wal, uint32(0), uint16(0))
	f.Add(snap, wal, uint32(8*len(snap)+8*9+3), uint16(0)) // flip in the log
	f.Add(snap, wal, uint32(8*20+1), uint16(0))            // flip in the snapshot
	f.Add(snap, wal, uint32(0), uint16(1<<15|1<<8|2))      // swap log records 1, 2
	f.Add(snap, wal, uint32(0), uint16(3<<8|5))            // swap snapshot records 3, 5
	f.Add(snap[:len(snap)/2], wal[:len(wal)-3], uint32(0), uint16(0))
	// A checksum-valid log whose add names a variable, not a ground term.
	var forged []byte
	for _, payload := range [][]byte{
		append([]byte{recTerm, byte(core.Variable)}, "X"...),
		append([]byte{recRel, 0, 0, 0, 1}, "P"...),
		PackKey([]byte{recAdd}, 0, []uint32{0}),
		{recCommit, 0, 0, 0, 0, 0, 0, 0, 1},
	} {
		forged = appendRecord(forged, payload)
	}
	f.Add([]byte(nil), forged, uint32(0), uint16(0))
	f.Fuzz(func(t *testing.T, snap, wal []byte, flip uint32, swap uint16) {
		snap, wal = append([]byte(nil), snap...), append([]byte(nil), wal...)
		if bit := int(flip) - 1; bit >= 0 && bit/8 < len(snap)+len(wal) {
			if bit/8 < len(snap) {
				snap[bit/8] ^= 1 << (bit % 8)
			} else {
				wal[bit/8-len(snap)] ^= 1 << (bit % 8)
			}
		}
		if swap != 0 {
			i, j := int(swap>>8&0x7f), int(swap&0xff)
			if swap&(1<<15) != 0 {
				wal = reorder(wal, i, j)
			} else {
				snap = reorder(snap, i, j)
			}
		}
		dir := t.TempDir()
		gen := uint64(0)
		if len(snap) > 0 {
			gen = 1
			if err := os.WriteFile(filepath.Join(dir, snapName(gen)), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, walName(gen)), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("Open failed without the corruption sentinel: %v", err)
			}
			return
		}
		got, version := s.Clone(), s.Version()
		s.Close()
		r, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen of a recovered store failed: %v", err)
		}
		defer r.Close()
		if r.Version() != version {
			t.Fatalf("reopen Version = %d, want %d", r.Version(), version)
		}
		assertMirrors(t, r, got)
	})
}
