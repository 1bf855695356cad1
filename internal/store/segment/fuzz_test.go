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

// seedStore builds a real store directory — a write-ahead log holding
// committed adds (a null and an explicit ACDom fact among them), a
// retraction and an uncommitted tail — and returns the log's bytes.
func seedStore(f *testing.F) []byte {
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
	s.Retract(core.NewAtom("Edge", core.Const("a"), core.Const("b")))
	s.Add(core.NewAtom("Edge", core.Const("c"), core.Const("d")))
	if _, err := s.Commit(); err != nil {
		f.Fatal(err)
	}
	s.Add(core.NewAtom("Mark", core.Const("d")))
	s.w.Flush() // leave the uncommitted record on disk, as a crash would
	s.Close()
	wal, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		f.Fatal(err)
	}
	return wal
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

// FuzzOpen feeds Open damaged logs: arbitrary bytes, a bit flip
// anywhere (flip-1 is the bit index), and two reordered records (swap
// selects the record pair). Open must either recover — and a reopen of
// the recovered store must reproduce its state exactly — or fail with an
// error wrapping errCorrupt. It must never panic or hang.
//
//	go test -run '^$' -fuzz '^FuzzOpen$' -fuzztime 20s ./internal/store/segment
func FuzzOpen(f *testing.F) {
	wal := seedStore(f)
	f.Add(wal, uint32(0), uint16(0))
	f.Add(wal[:len(wal)-3], uint32(0), uint16(0))
	f.Add(wal, uint32(8*9+3), uint16(0))            // flip in the first records
	f.Add(wal, uint32(8*(len(wal)/2)+1), uint16(0)) // flip mid-log
	f.Add(wal, uint32(0), uint16(1<<8|2))           // swap records 1, 2
	f.Add(wal, uint32(0), uint16(3<<8|5))           // swap records 3, 5
	f.Add(wal[:len(wal)/2], uint32(0), uint16(0))
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
	f.Add(forged, uint32(0), uint16(0))
	f.Fuzz(func(t *testing.T, wal []byte, flip uint32, swap uint16) {
		wal = append([]byte(nil), wal...)
		if bit := int(flip) - 1; bit >= 0 && bit/8 < len(wal) {
			wal[bit/8] ^= 1 << (bit % 8)
		}
		if swap != 0 {
			wal = reorder(wal, int(swap>>8), int(swap&0xff))
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), wal, 0o644); err != nil {
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
