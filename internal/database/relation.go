package database

import (
	"sync/atomic"

	"guardedrules/internal/core"
)

// Rel is the store of one relation key, and the read handle that
// Database.Rel returns: the packed id tuples of its facts in insertion
// order (w ids per fact, flat), per-position indexes keyed on interned
// ids, and an open-addressing seen-set over the id tuples. The id tuples
// are the only copy of a fact: atoms are materialized from them through
// the intern table on read. Keeping everything keyed on dense uint32 ids
// (instead of serialized byte strings) removes string hashing from the
// insert and dedup hot paths, which profiles showed dominating fixpoint
// runs.
//
// shared is set by Database.Clone once a snapshot holds the relation too;
// from then on the relation is never written again, and the first write
// through either database goes to a private clone instead. A nil *Rel is
// the handle of an absent relation: it reads as empty.
type Rel struct {
	shared atomic.Bool
	// key is the relation's own byRel key. A clone is stored under it: a
	// caller's key would replace the map's, and may point into parsed text.
	key core.RelKey
	w   int
	// n is the fact count: len(ids)/w, except that nullary relations
	// (w = 0) have no ids to count.
	n   int
	ids []uint32
	// index[pos][id] lists the fact ordinals (into ids) whose flat
	// position pos holds id, in insertion order. len(index[pos]) is the
	// number of distinct ids at that position — the planner's DistinctAt.
	index []map[uint32][]int32
	seen  idSet
}

func newRel(rk core.RelKey) *Rel {
	w := rk.Arity + rk.AnnArity
	return &Rel{key: rk, w: w, index: make([]map[uint32][]int32, w)}
}

// Len returns the number of facts.
func (r *Rel) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Tuples returns the id tuples of the facts as one flat slice, w ids per
// fact, in insertion order. The slice must not be modified.
func (r *Rel) Tuples() []uint32 {
	if r == nil {
		return nil
	}
	return r.ids
}

// Posting returns the ordinals of the facts whose flat position pos
// holds id, in insertion order. The slice must not be modified.
func (r *Rel) Posting(pos int, id uint32) []int32 {
	if r == nil || pos < 0 || pos >= len(r.index) {
		return nil
	}
	return r.index[pos][id]
}

// Distinct returns the number of distinct ids at flat position pos.
func (r *Rel) Distinct(pos int) int {
	if r == nil || pos < 0 || pos >= len(r.index) {
		return 0
	}
	return len(r.index[pos])
}

// Has reports whether the relation holds the fact with id tuple ids.
func (r *Rel) Has(ids []uint32) bool { return r.HasHash(HashIDs(ids), ids) }

// HasHash is Has for a caller that already holds HashIDs(ids), so one
// hash serves every set a candidate tuple is probed in.
func (r *Rel) HasHash(h uint64, ids []uint32) bool {
	return r != nil && len(ids) == r.w && r.seen.has(r, h, ids)
}

// tupleAt returns the packed id tuple of fact ordinal ix.
func (r *Rel) tupleAt(ix int) []uint32 { return r.ids[ix*r.w : ix*r.w+r.w] }

// clone returns a deep, unshared copy of the relation: the first write to
// a relation shared with a snapshot goes to it. The id arrays, posting
// lists and seen-set table are copied, so the clone mutates
// independently.
func (r *Rel) clone() *Rel {
	out := &Rel{
		key:   r.key,
		w:     r.w,
		n:     r.n,
		ids:   append([]uint32(nil), r.ids...),
		index: make([]map[uint32][]int32, len(r.index)),
		seen:  idSet{table: append([]int32(nil), r.seen.table...), n: r.seen.n},
	}
	for p, m := range r.index {
		if m == nil {
			continue
		}
		nm := make(map[uint32][]int32, len(m))
		for id, list := range m {
			nm[id] = append([]int32(nil), list...)
		}
		out.index[p] = nm
	}
	return out
}

// remove deletes the fact with the given id tuple, reporting whether it
// was present. The relation's last fact is swapped into the freed
// ordinal (ids are kept dense), and the seen-set and per-position
// posting lists are maintained: the removed ordinal leaves every list it
// was on (empty lists are deleted, keeping DistinctAt exact), and the
// moved fact's ordinal is rewritten in place, preserving each list's
// ascending order.
func (r *Rel) remove(key []uint32) bool {
	ix := r.seen.del(r, key)
	if ix < 0 {
		return false
	}
	last := r.n - 1
	if ix != last {
		// Re-point the seen-set entry of the fact about to move. The
		// probe runs before ids are mutated, so every stored ordinal
		// still resolves to its original tuple.
		r.seen.repoint(r, r.tupleAt(last), last, ix)
	}
	var lastKey [16]uint32
	lk := append(lastKey[:0], r.tupleAt(last)...)
	for p := 0; p < r.w; p++ {
		removeOrdinal(r.index[p], key[p], int32(ix))
		if ix != last {
			moveOrdinal(r.index[p], lk[p], int32(last), int32(ix))
		}
	}
	if ix != last {
		copy(r.ids[ix*r.w:(ix+1)*r.w], r.ids[last*r.w:])
	}
	r.n = last
	r.ids = r.ids[:last*r.w]
	return true
}

// removeOrdinal deletes ord from the ascending posting list m[id],
// dropping the map key when the list empties (len(m) is the planner's
// DistinctAt, so empty lists must not linger).
func removeOrdinal(m map[uint32][]int32, id uint32, ord int32) {
	list := m[id]
	i := searchOrdinal(list, ord)
	if i >= len(list) || list[i] != ord {
		return
	}
	if len(list) == 1 {
		delete(m, id)
		return
	}
	copy(list[i:], list[i+1:])
	m[id] = list[:len(list)-1]
}

// moveOrdinal rewrites ordinal from as to in the ascending posting list
// m[id]. from is the relation's maximal ordinal (the fact being swapped
// down), so it sits at the end of the list; the rewritten value is
// re-inserted at its sorted position.
func moveOrdinal(m map[uint32][]int32, id uint32, from, to int32) {
	list := m[id]
	if len(list) == 0 || list[len(list)-1] != from {
		return
	}
	i := searchOrdinal(list, to)
	copy(list[i+1:], list[i:len(list)-1])
	list[i] = to
}

// searchOrdinal returns the insertion point of ord in the ascending
// list.
func searchOrdinal(list []int32, ord int32) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid] < ord {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// idSet is an open-addressing hash set of fact ordinals keyed by their id
// tuples (stored once, in the relation's flat ids array — the set holds
// only 1-based ordinals). Zero value is ready to use.
type idSet struct {
	table []int32 // 1-based fact ordinal; 0 = empty slot
	n     int
}

// fnv64 constants, hashing word-at-a-time over the id tuple.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashIDs is the hash of an id tuple that the seen-sets use.
func HashIDs(ids []uint32) uint64 {
	h := uint64(fnvOffset64)
	for _, id := range ids {
		h ^= uint64(id)
		h *= fnvPrime64
	}
	return h
}

func equalIDs(a, b []uint32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// has reports whether the tuple key, whose HashIDs is h, is already
// stored in r.
func (s *idSet) has(r *Rel, h uint64, key []uint32) bool {
	if len(s.table) == 0 {
		return false
	}
	mask := uint64(len(s.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := s.table[i]
		if e == 0 {
			return false
		}
		if equalIDs(r.tupleAt(int(e-1)), key) {
			return true
		}
	}
}

// add records fact ordinal ix, whose tuple (with HashIDs h) must already
// be appended to r.ids. The caller checks has first; add never checks
// for duplicates.
func (s *idSet) add(r *Rel, h uint64, ix int) {
	if 4*(s.n+1) >= 3*len(s.table) {
		s.grow(r)
	}
	mask := uint64(len(s.table) - 1)
	i := h & mask
	for s.table[i] != 0 {
		i = (i + 1) & mask
	}
	s.table[i] = int32(ix + 1)
	s.n++
}

// del removes the entry with the given tuple key, returning its 0-based
// fact ordinal, or -1 when absent. Deletion is by backshift: the probe
// cluster after the hole is compacted so that lookups never need
// tombstones and the load factor stays exact.
func (s *idSet) del(r *Rel, key []uint32) int {
	if len(s.table) == 0 {
		return -1
	}
	mask := uint64(len(s.table) - 1)
	i := HashIDs(key) & mask
	for {
		e := s.table[i]
		if e == 0 {
			return -1
		}
		if equalIDs(r.tupleAt(int(e-1)), key) {
			break
		}
		i = (i + 1) & mask
	}
	ord := int(s.table[i] - 1)
	// Walk the cluster after the hole; an entry moves back into the hole
	// exactly when its home slot is cyclically outside (i, j], i.e. its
	// probe path crosses the hole.
	j := i
	for {
		j = (j + 1) & mask
		e := s.table[j]
		if e == 0 {
			break
		}
		h := HashIDs(r.tupleAt(int(e-1))) & mask
		if (j > i && (h <= i || h > j)) || (j < i && h <= i && h > j) {
			s.table[i] = e
			i = j
		}
	}
	s.table[i] = 0
	s.n--
	return ord
}

// repoint rewrites the stored ordinal of the fact with tuple key from
// `from` to `to` (the fact is being swapped to a new ordinal). The probe
// must run while the relation's id array still holds every stored
// ordinal's original tuple.
func (s *idSet) repoint(r *Rel, key []uint32, from, to int) {
	mask := uint64(len(s.table) - 1)
	for i := HashIDs(key) & mask; ; i = (i + 1) & mask {
		e := s.table[i]
		if e == 0 {
			return
		}
		if int(e-1) == from {
			s.table[i] = int32(to + 1)
			return
		}
	}
}

func (s *idSet) grow(r *Rel) {
	ncap := 2 * len(s.table)
	if ncap < 16 {
		ncap = 16
	}
	nt := make([]int32, ncap)
	mask := uint64(ncap - 1)
	for _, e := range s.table {
		if e == 0 {
			continue
		}
		i := HashIDs(r.tupleAt(int(e-1))) & mask
		for nt[i] != 0 {
			i = (i + 1) & mask
		}
		nt[i] = e
	}
	s.table = nt
}
