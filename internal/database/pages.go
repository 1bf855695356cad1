package database

import "slices"

// pages is a copy-on-write array of T split into pages: the one paging
// scheme of the package, behind a relation's id tuples, seen-set slots
// and posting-list heads and behind the ACDom support counts. The caller
// picks the page size and maps its indexes to (page, entry).
//
// A directory writes in place only the pages it owns (mine): the pages
// it allocated or copied. fork gives a copy of the directory that shares
// every page and owns none, so the copy copies each page on its first
// write to it. A forked directory is never written again: the structure
// that holds it is frozen by Database.Clone, and every writer forks.
//
// The directory starts at the first page written (lo), so a structure
// indexed by term id whose ids are all high holds no table entry for
// the pages below them. An absent page (nil) reads as all zero values,
// and so do the entries past the end of a page that its writer keeps
// short. Each page's capacity is its own: appending to one never writes
// into another, even where they share one allocation.
//
// The directory holds page pointers, not slice headers, so that the
// copy a fork makes is 8 bytes a page.
type pages[T any] struct {
	lo   int
	dir  []*page[T]
	mine []uint64 // bit k: dir[k] is this directory's own
}

// page is one page of a pages directory.
type page[T any] struct{ v []T }

// entry returns entry k of page i: the zero value when it is absent.
func (p *pages[T]) entry(i, k int) T {
	if i -= p.lo; uint(i) < uint(len(p.dir)) {
		if pg := p.dir[i]; pg != nil && k < len(pg.v) {
			return pg.v[k]
		}
	}
	var zero T
	return zero
}

// copies reports whether a write to page i copies it first: the page
// exists and is not the directory's own.
func (p *pages[T]) copies(i int) bool {
	i -= p.lo
	return uint(i) < uint(len(p.dir)) && p.dir[i] != nil && !bitSet(p.mine, i)
}

// write returns page i, writable through p and at least n entries long.
// An absent page is allocated, a page p does not own is first replaced
// by a private copy, and a short page is extended with zero values.
func (p *pages[T]) write(i, n int) []T {
	switch {
	case len(p.dir) == 0:
		p.lo, p.dir = i, make([]*page[T], 1, 4)
	case i < p.lo:
		// Prepend the missing pages, shifting the ownership bits along.
		shift := p.lo - i
		p.dir = slices.Insert(p.dir, 0, make([]*page[T], shift)...)
		mine := make([]uint64, (len(p.dir)+63)/64)
		for k := 0; k < len(p.dir)-shift; k++ {
			if bitSet(p.mine, k) {
				setBit(mine, k+shift)
			}
		}
		p.lo, p.mine = i, mine
	case i >= p.lo+len(p.dir):
		p.dir = append(p.dir, make([]*page[T], i+1-p.lo-len(p.dir))...)
	}
	k := i - p.lo
	if w := (len(p.dir) + 63) / 64; len(p.mine) < w {
		p.mine = append(p.mine, make([]uint64, w-len(p.mine))...)
	}
	pg := p.dir[k]
	if !bitSet(p.mine, k) {
		q := &page[T]{}
		if pg != nil {
			q.v = slices.Clone(pg.v)
		}
		pg, p.dir[k] = q, q
		setBit(p.mine, k)
	}
	if len(pg.v) < n {
		pg.v = append(pg.v, make([]T, n-len(pg.v))...)
	}
	return pg.v
}

// fork returns a copy of the directory that shares every page with p
// and owns none of them. p must not be written afterwards.
func (p *pages[T]) fork() pages[T] { return pages[T]{lo: p.lo, dir: slices.Clone(p.dir)} }

// whole returns a directory of n zero entries, from index 0, in pages of
// size entries that it owns, allocated at once.
func whole[T any](n, size int) pages[T] {
	all, pgs := make([]T, n), make([]page[T], (n+size-1)/size)
	p := pages[T]{dir: make([]*page[T], len(pgs)), mine: make([]uint64, (len(pgs)+63)/64)}
	for k := range pgs {
		end := min(n, (k+1)*size)
		pgs[k].v = all[k*size : end : end]
		p.dir[k] = &pgs[k]
		setBit(p.mine, k)
	}
	return p
}

// bitSet reports bit k of bits; bits past the end are clear.
func bitSet(bits []uint64, k int) bool {
	return k/64 < len(bits) && bits[k/64]&(1<<(k%64)) != 0
}

func setBit(bits []uint64, k int) { bits[k/64] |= 1 << (k % 64) }
