package database

import (
	"slices"
	"sync/atomic"

	"guardedrules/internal/core"
)

// Rel is the store of one relation key, and the read handle that
// Database.Rel returns: the id tuples of its facts in insertion order,
// per-position posting lists indexed by interned id, and an
// open-addressing seen-set over the id tuples. A unary relation keeps no
// seen-set: its posting lists hold one ordinal at most and answer Has.
// The id tuples are the only copy of a fact: atoms are materialized from
// them through the intern table on read. Keeping everything keyed on
// dense uint32 ids (instead of serialized byte strings) removes string
// hashing from the insert and dedup hot paths, which profiles showed
// dominating fixpoint runs.
//
// All per-fact data lives in copy-on-write pages (see pages): a private
// copy of a relation shares every page with the relation it was copied
// from, and copies a page on its first write to it.
//
// shared is set by Database.Clone once a snapshot holds the relation too;
// from then on the relation is never written again, and the first write
// through either database goes to a private copy instead. A nil *Rel is
// the handle of an absent relation: it reads as empty.
type Rel struct {
	shared atomic.Bool
	// key is the relation's own byRel key. A clone is stored under it: a
	// caller's key would replace the map's, and may point into parsed text.
	key core.RelKey
	w   int
	n   int
	// ids holds the id tuples, relPage facts (w ids each) to a page. A
	// page may hold stale or zero tuples past fact n-1.
	ids pages[uint32]
	// post[pos] holds the posting lists of flat position pos.
	post []postings
	seen idSet
}

// Page sizes, in entries: facts for a relation's id tuples, slots for
// its seen-set, list heads for its posting lists, borrowed-list words
// for its pages of list heads and counts for the ACDom support counts. Each page
// is 256 bytes to 1 KiB: smaller pages make a write after a Clone copy
// less, larger ones make the directory that a relation's first write
// after a Clone copies shorter.
const (
	relShift    = 6
	relPage     = 1 << relShift
	seenShift   = 6
	seenPage    = 1 << seenShift
	postShift   = 5
	postPage    = 1 << postShift
	borrowShift = 6
	borrowPage  = 1 << borrowShift
	acdomShift  = 8
	acdomPage   = 1 << acdomShift
)

func newRel(rk core.RelKey) *Rel {
	w := rk.Arity + rk.AnnArity
	return &Rel{key: rk, w: w, post: make([]postings, w)}
}

// Len returns the number of facts.
func (r *Rel) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Tuple returns the id tuple of fact ordinal ix, 0 <= ix < Len(). The
// slice must not be modified; it keeps its contents through later
// inserts, but a removal may overwrite it.
func (r *Rel) Tuple(ix int) []uint32 {
	off := (ix & (relPage - 1)) * r.w
	return r.ids.dir[ix>>relShift].v[off : off+r.w]
}

// AppendTuples appends the id tuples of the facts with ordinals from
// through to-1 to dst, w ids per fact, and returns the extended slice.
func (r *Rel) AppendTuples(dst []uint32, from, to int) []uint32 {
	for ix := from; ix < to; {
		pg := r.ids.dir[ix>>relShift].v
		end := min(to, (ix|(relPage-1))+1)
		dst = append(dst, pg[(ix&(relPage-1))*r.w:((end-1)&(relPage-1)+1)*r.w]...)
		ix = end
	}
	return dst
}

// Posting returns the ordinals of the facts whose flat position pos
// holds id, in insertion order. The slice must not be modified.
func (r *Rel) Posting(pos int, id uint32) []int32 {
	if r == nil || pos < 0 || pos >= len(r.post) {
		return nil
	}
	return r.post[pos].get(id)
}

// Distinct returns the number of distinct ids at flat position pos.
func (r *Rel) Distinct(pos int) int {
	if r == nil || pos < 0 || pos >= len(r.post) {
		return 0
	}
	return r.post[pos].distinct
}

// Has reports whether the relation holds the fact with id tuple ids.
func (r *Rel) Has(ids []uint32) bool { return r.HasHash(HashIDs(ids), ids) }

// HasHash is Has for a caller that already holds HashIDs(ids), so one
// hash serves every set a candidate tuple is probed in.
func (r *Rel) HasHash(h uint64, ids []uint32) bool {
	switch {
	case r == nil || len(ids) != r.w:
		return false
	case r.w == 1:
		return len(r.post[0].get(ids[0])) > 0
	}
	return r.seen.has(r, h, ids)
}

// clone returns a private copy of the relation: the first write to a
// relation shared with a snapshot goes to it. It copies the page
// directories only; each page is copied on the copy's first write to it.
func (r *Rel) clone() *Rel {
	out := &Rel{
		key:  r.key,
		w:    r.w,
		n:    r.n,
		ids:  r.ids.fork(),
		post: make([]postings, len(r.post)),
		seen: idSet{slots: r.seen.slots.fork(), mask: r.seen.mask, n: r.seen.n},
	}
	for p := range r.post {
		ps := &r.post[p]
		out.post[p] = postings{heads: ps.heads.fork(), borrowed: ps.borrowed.fork(), distinct: ps.distinct}
	}
	return out
}

// append adds the fact with id tuple key, whose HashIDs is h, as the
// relation's last ordinal. The caller checks that it is absent.
func (r *Rel) append(h uint64, key []uint32) {
	ix := r.n
	r.n++
	// The first page grows with the relation, so a small relation stays
	// small; a relation that filled it gets whole pages.
	off, n := (ix&(relPage-1))*r.w, relPage*r.w
	if ix < relPage {
		n = off + r.w
	}
	copy(r.ids.write(ix>>relShift, n)[off:], key)
	if r.w != 1 {
		r.seen.add(h, ix)
	}
	for p, id := range key {
		r.post[p].add(id, int32(ix))
	}
}

// remove deletes the fact with the given id tuple, reporting whether it
// was present. The relation's last fact is swapped into the freed
// ordinal (ordinals are kept dense), and the seen-set and per-position
// posting lists are maintained: the removed ordinal leaves every list it
// was on (an emptied list lowers Distinct), and the moved fact's ordinal
// is rewritten in place, preserving each list's ascending order.
func (r *Rel) remove(key []uint32) bool {
	ix := -1
	if r.w != 1 {
		ix = r.seen.del(r, key)
	} else if list := r.post[0].get(key[0]); len(list) > 0 {
		ix = int(list[0])
	}
	if ix < 0 {
		return false
	}
	last := r.n - 1
	var lastKey [16]uint32
	lk := append(lastKey[:0], r.Tuple(last)...)
	if ix != last && r.w != 1 {
		// Re-point the seen-set entry of the fact about to move. The
		// probe runs before ids are mutated, so every stored ordinal
		// still resolves to its original tuple.
		r.seen.repoint(lk, last, ix)
	}
	for p := 0; p < r.w; p++ {
		r.post[p].remove(key[p], int32(ix))
		if ix != last {
			r.post[p].move(lk[p], int32(last), int32(ix))
		}
	}
	if ix != last {
		off := (ix & (relPage - 1)) * r.w
		copy(r.ids.write(ix>>relShift, off+r.w)[off:], lk)
	}
	r.n = last
	return true
}

// postings holds the posting lists of one flat position: the ascending
// fact ordinals whose position holds an id, in pages of list heads
// indexed by id, with the number of non-empty lists. A new list starts
// in one slot of arena with no spare capacity, so most lists of one
// fact cost no allocation of their own, and growing one copies it out.
// A private copy of the postings starts a fresh arena.
type postings struct {
	heads pages[[]int32]
	// borrowed holds one word per page of heads: bit k of page i's word
	// marks list k of the page as borrowed, its backing array still
	// shared with a snapshot. A copied page borrows every list and
	// copies each on its first write, so two copies of one page never
	// write into the same list. A page allocated here borrows none, so
	// a relation that was never shared keeps no words.
	borrowed pages[uint64]
	distinct int
	arena    []int32
}

// listArena is the number of one-fact lists an arena holds.
const listArena = 64

// get returns the list of id.
func (ps *postings) get(id uint32) []int32 {
	return ps.heads.entry(int(id>>postShift), int(id&(postPage-1)))
}

// page returns the writable page of heads that holds id's list and the
// list's entry k in it.
func (ps *postings) page(id uint32) (pg [][]int32, k int) {
	i := int(id >> postShift)
	if ps.heads.copies(i) {
		ps.setBorrowed(i, ^uint64(0))
	}
	return ps.heads.write(i, postPage), int(id & (postPage - 1))
}

// setBorrowed sets the borrowed word of heads page i. A page of words
// grows to the last word written, so a relation with few copied heads
// pages keeps a few words, not a whole page.
func (ps *postings) setBorrowed(i int, w uint64) {
	j := i & (borrowPage - 1)
	ps.borrowed.write(i>>borrowShift, j+1)[j] = w
}

// own makes list k of heads page i the page's own and reports whether
// it was borrowed; the caller then copies the list before writing it.
func (ps *postings) own(i, k int) bool {
	w := ps.borrowed.entry(i>>borrowShift, i&(borrowPage-1))
	if w&(1<<k) == 0 {
		return false
	}
	ps.setBorrowed(i, w&^(1<<k))
	return true
}

// writable returns the page and entry of id's list, with the list's
// backing array owned by the page: a borrowed list is copied first.
func (ps *postings) writable(id uint32) ([][]int32, int) {
	pg, k := ps.page(id)
	if ps.own(int(id>>postShift), k) {
		pg[k] = slices.Clone(pg[k])
	}
	return pg, k
}

// add appends ord, above every ordinal of the list, to id's list.
func (ps *postings) add(id uint32, ord int32) {
	pg, k := ps.page(id)
	list := pg[k]
	if len(list) == 0 {
		ps.distinct++
	}
	if ps.own(int(id>>postShift), k) {
		// A full slice makes append copy a borrowed list.
		list = list[:len(list):len(list)]
	}
	if len(list) == 0 {
		if len(ps.arena) == 0 {
			ps.arena = make([]int32, listArena)
		}
		list, ps.arena = ps.arena[:0:1], ps.arena[1:]
	}
	pg[k] = append(list, ord)
}

// remove deletes ord from id's list; an emptied list is dropped.
func (ps *postings) remove(id uint32, ord int32) {
	list := ps.get(id)
	i := searchOrdinal(list, ord)
	if i >= len(list) || list[i] != ord {
		return
	}
	if len(list) == 1 {
		pg, k := ps.page(id)
		pg[k] = nil
		ps.distinct--
		return
	}
	pg, k := ps.writable(id)
	list = pg[k]
	copy(list[i:], list[i+1:])
	pg[k] = list[:len(list)-1]
}

// move rewrites ordinal from as to in id's list. from is the relation's
// maximal ordinal (the fact being swapped down), so it sits at the end
// of the list; the rewritten value is re-inserted at its sorted
// position.
func (ps *postings) move(id uint32, from, to int32) {
	if list := ps.get(id); len(list) == 0 || list[len(list)-1] != from {
		return
	}
	pg, k := ps.writable(id)
	list := pg[k]
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
// tuples (stored once, in the relation's id pages). A slot holds the
// low 32 bits of the tuple's HashIDs above its 1-based fact ordinal (0
// is an empty slot), so a probe reads a tuple only when the hashes
// agree. Its table of mask+1 slots (a power of two, 0 with no table) is
// paged, seenPage slots to a page. A tuple's home slot is the low bits
// of its hash, which the slot keeps, so growing the table or shifting
// a cluster back finds each entry's home without reading its tuple. (The
// low bits keep tuples that differ in their last id near each other,
// which a hash mixed over every bit would scatter.) Zero value is ready
// to use.
type idSet struct {
	slots pages[uint64]
	mask  uint64
	n     int
}

// seenEntry is the slot of fact ordinal ix, whose tuple hashes to h.
func seenEntry(h uint64, ix int) uint64 { return h<<32 | uint64(ix+1) }

// seenMatch reports whether slot e may hold a tuple that hashes to h.
func seenMatch(e, h uint64) bool { return (e^h<<32)>>32 == 0 }

// home returns the home slot of the entry e.
func (s *idSet) home(e uint64) uint64 { return e >> 32 & s.mask }

// seenOrd is the fact ordinal of the non-empty slot e.
func seenOrd(e uint64) int { return int(uint32(e)) - 1 }

// slot returns the entry of slot i.
func (s *idSet) slot(i uint64) uint64 { return s.slots.dir[i>>seenShift].v[i&(seenPage-1)] }

// set writes e into slot i.
func (s *idSet) set(i uint64, e uint64) { s.slots.write(int(i>>seenShift), 0)[i&(seenPage-1)] = e }

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
	if s.n == 0 {
		return false
	}
	// The hot probe loop reads the directories once.
	slots, ids, w, mask := s.slots.dir, r.ids.dir, r.w, s.mask
	for i := h & mask; ; i = (i + 1) & mask {
		e := slots[i>>seenShift].v[i&(seenPage-1)]
		if e == 0 {
			return false
		}
		if !seenMatch(e, h) {
			continue
		}
		ix := seenOrd(e)
		off := (ix & (relPage - 1)) * w
		if equalIDs(ids[ix>>relShift].v[off:off+w], key) {
			return true
		}
	}
}

// add records fact ordinal ix, whose tuple has HashIDs h. The caller
// checks has first; add never checks for duplicates.
func (s *idSet) add(h uint64, ix int) {
	if 4*(s.n+1) >= 3*int(s.mask+1) {
		s.grow()
	}
	i := h & s.mask
	for s.slot(i) != 0 {
		i = (i + 1) & s.mask
	}
	s.set(i, seenEntry(h, ix))
	s.n++
}

// del removes the entry with the given tuple key, returning its 0-based
// fact ordinal, or -1 when absent. Deletion is by backshift: the probe
// cluster after the hole is compacted so that lookups never need
// tombstones and the load factor stays exact.
func (s *idSet) del(r *Rel, key []uint32) int {
	if s.n == 0 {
		return -1
	}
	mask, h := s.mask, HashIDs(key)
	i := h & mask
	for {
		e := s.slot(i)
		if e == 0 {
			return -1
		}
		if seenMatch(e, h) && equalIDs(r.Tuple(seenOrd(e)), key) {
			break
		}
		i = (i + 1) & mask
	}
	ord := seenOrd(s.slot(i))
	// Walk the cluster after the hole; an entry moves back into the hole
	// exactly when its home slot is cyclically outside (i, j], i.e. its
	// probe path crosses the hole.
	j := i
	for {
		j = (j + 1) & mask
		e := s.slot(j)
		if e == 0 {
			break
		}
		h := s.home(e)
		if (j > i && (h <= i || h > j)) || (j < i && h <= i && h > j) {
			s.set(i, e)
			i = j
		}
	}
	s.set(i, 0)
	s.n--
	return ord
}

// repoint rewrites the stored ordinal of the fact with tuple key from
// `from` to `to` (the fact is being swapped to a new ordinal). The probe
// must run while the relation's id array still holds every stored
// ordinal's original tuple.
func (s *idSet) repoint(key []uint32, from, to int) {
	h := HashIDs(key)
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		e := s.slot(i)
		if e == 0 {
			return
		}
		if seenOrd(e) == from {
			s.set(i, seenEntry(h, to))
			return
		}
	}
}

// grow rehashes the set into a fresh table of twice the slots (16 at
// least), which the set owns whole. The slots' hash bits give each
// entry's home while the table has at most 2^32 slots.
func (s *idSet) grow() {
	ncap := 2 * int(s.mask+1)
	if ncap < 16 {
		ncap = 16
	}
	nt := idSet{slots: whole[uint64](ncap, seenPage), mask: uint64(ncap - 1), n: s.n}
	for _, pg := range s.slots.dir {
		for _, e := range pg.v {
			if e == 0 {
				continue
			}
			i := nt.home(e)
			for nt.slot(i) != 0 {
				i = (i + 1) & nt.mask
			}
			nt.slots.dir[i>>seenShift].v[i&(seenPage-1)] = e
		}
	}
	*s = nt
}
