package datalog

// keyset is an open-addressing set of (tag, id tuple) keys, the
// per-work-item duplicate filter of the semi-naive engine: tag is the
// head-atom index, the tuple the head's packed instantiation. Keys are
// stored packed in a flat arena — no string serialization, no per-entry
// allocation — which matters because in recursive rules the same new
// fact is typically re-derived many times per round. Zero value is ready
// to use.
type keyset struct {
	arena []uint32 // entries: [tag, w, id...]; offsets are 1-based
	table []int32  // 1-based arena offsets; 0 = empty slot
	n     int
}

const (
	ksOffset64 = 14695981039346656037
	ksPrime64  = 1099511628211
)

func ksHash(tag uint32, ids []uint32) uint64 {
	h := uint64(ksOffset64)
	h ^= uint64(tag)
	h *= ksPrime64
	for _, id := range ids {
		h ^= uint64(id)
		h *= ksPrime64
	}
	return h
}

// add inserts the key and reports whether it was new.
func (s *keyset) add(tag uint32, ids []uint32) bool {
	if 4*(s.n+1) >= 3*len(s.table) {
		s.grow()
	}
	mask := uint64(len(s.table) - 1)
	w := uint32(len(ids))
	for i := ksHash(tag, ids) & mask; ; i = (i + 1) & mask {
		off := s.table[i]
		if off == 0 {
			s.table[i] = int32(len(s.arena) + 1)
			s.arena = append(s.arena, tag, w)
			s.arena = append(s.arena, ids...)
			s.n++
			return true
		}
		e := s.arena[off-1:]
		if e[0] == tag && e[1] == w && equal32(e[2:2+w], ids) {
			return false
		}
	}
}

func equal32(a, b []uint32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (s *keyset) grow() {
	ncap := 2 * len(s.table)
	if ncap < 16 {
		ncap = 16
	}
	nt := make([]int32, ncap)
	mask := uint64(ncap - 1)
	for _, off := range s.table {
		if off == 0 {
			continue
		}
		e := s.arena[off-1:]
		w := e[1]
		i := ksHash(e[0], e[2:2+w]) & mask
		for nt[i] != 0 {
			i = (i + 1) & mask
		}
		nt[i] = off
	}
	s.table = nt
}
