package saturate

// canonizer computes canonical forms of id-space atom lists: the
// lexicographically least serialization over all atom orderings, with
// variables numbered by first occurrence. Two atom lists get the same
// serialization exactly when they are equal up to variable renaming and
// reordering, and every numbering that achieves it maps both onto the
// same numbered atom list. The search branches only on serialization
// ties. Its buffers are reused across calls, so a pool owns one.
type canonizer struct {
	num   []int32 // variable → canonical index, -1 while unnumbered
	next  int32
	used  []bool
	acc   []int32 // serialization of the atoms placed so far
	best  []int32
	have  bool
	nums  [][]int32 // numberings achieving best
	stack []int32   // per-depth minimal serializations
	atoms []atom
}

// canon returns the canonical serialization of atoms (variables
// 0..nv-1) and every numbering achieving it. seed, when non-nil,
// numbers some variables in advance (the body's numbering when the head
// is canonicalized after it); unseeded variables are numbered from one
// past the seed's largest index. The returned slices are fresh copies.
func (c *canonizer) canon(atoms []atom, nv int32, seed []int32) ([]int32, [][]int32) {
	c.num = c.num[:0]
	c.next = 0
	for v := int32(0); v < nv; v++ {
		n := int32(-1)
		if seed != nil {
			n = seed[v]
		}
		c.num = append(c.num, n)
		if n >= c.next {
			c.next = n + 1
		}
	}
	c.used = c.used[:0]
	for range atoms {
		c.used = append(c.used, false)
	}
	c.acc, c.best, c.have, c.nums, c.atoms = c.acc[:0], c.best[:0], false, nil, atoms
	c.rec(0)
	return append([]int32(nil), c.best...), c.nums
}

// serialize appends the serialization of a under the current numbering:
// the count of variables it would newly number, its relation, then its
// arguments with variables replaced by canonical indices (variables new
// to this atom get the indices they would receive) and interned terms
// kept as their negative ids. Preferring atoms that number few new
// variables keeps connected atoms together and collapses most ties.
func (c *canonizer) serialize(dst []int32, a atom) []int32 {
	head := len(dst)
	dst = append(dst, 0, a.rel)
	fresh := int32(0)
	for i, t := range a.args {
		switch {
		case t < 0:
			dst = append(dst, t)
		case c.num[t] >= 0:
			dst = append(dst, c.num[t])
		default:
			n := c.next + fresh
			for j := 0; j < i; j++ {
				if a.args[j] == t {
					n = dst[head+2+j]
					break
				}
			}
			if n == c.next+fresh {
				fresh++
			}
			dst = append(dst, n)
		}
	}
	dst[head] = fresh
	return dst
}

func compareInts(a, b []int32) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

func (c *canonizer) rec(depth int) {
	if depth == len(c.atoms) {
		switch cmp := compareInts(c.acc, c.best); {
		case !c.have || cmp < 0:
			c.best = append(c.best[:0], c.acc...)
			c.nums = [][]int32{append([]int32(nil), c.num...)}
			c.have = true
		case cmp == 0:
			c.nums = append(c.nums, append([]int32(nil), c.num...))
		}
		return
	}
	// Serialize every unused atom; keep the minimal serialization at
	// stack[base:] and the atoms achieving it in cands.
	base := len(c.stack)
	var cands []int32
	for i, a := range c.atoms {
		if c.used[i] {
			continue
		}
		start := len(c.stack)
		c.stack = c.serialize(c.stack, a)
		ser := c.stack[start:]
		cmp := -1
		if len(cands) > 0 {
			cmp = compareInts(ser, c.stack[base:start])
		}
		switch {
		case cmp < 0:
			copy(c.stack[base:], ser)
			c.stack = c.stack[:base+len(ser)]
			cands = append(cands[:0], int32(i))
		case cmp == 0:
			c.stack = c.stack[:start]
			cands = append(cands, int32(i))
		default:
			c.stack = c.stack[:start]
		}
	}
	minSer := c.stack[base:]
	// Prune when the partial serialization already exceeds the best one.
	// Every complete serialization has the same length, so comparing
	// prefixes of equal length decides it.
	if c.have {
		n := len(c.acc)
		cmp := compareInts(c.acc, c.best[:n])
		if cmp == 0 {
			cmp = compareInts(minSer, c.best[n:n+len(minSer)])
		}
		if cmp > 0 {
			c.stack = c.stack[:base]
			return
		}
	}
	accLen := len(c.acc)
	c.acc = append(c.acc, minSer...)
	for _, i := range cands {
		a := c.atoms[i]
		mark := c.next
		for _, t := range a.args {
			if t >= 0 && c.num[t] < 0 {
				c.num[t] = c.next
				c.next++
			}
		}
		c.used[i] = true
		c.rec(depth + 1)
		c.used[i] = false
		for _, t := range a.args {
			if t >= 0 && c.num[t] >= mark {
				c.num[t] = -1
			}
		}
		c.next = mark
	}
	c.acc = c.acc[:accLen]
	c.stack = c.stack[:base]
}

// appendKey encodes an int32 sequence as bytes, for map keys.
func appendKey(dst []byte, s []int32) []byte {
	for _, v := range s {
		dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return dst
}
