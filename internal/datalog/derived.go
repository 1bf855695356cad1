package datalog

import (
	"slices"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/hom"
)

// derived buffers the head instantiations of one join, in emission
// order, for the merge. An instantiation is stored in a flat arena as a
// head index h followed by heads[h]'s id tuple; h >= len(heads) stands
// for atoms[h-len(heads)], a head materialized because a constant of it
// had no id in the joined database (the merge interns it). An
// open-addressing table over the arena offsets drops a join's repeated
// instantiations: in recursive rules the same new fact is typically
// re-derived many times per round. A batch of base facts is a derived
// with no heads.
type derived struct {
	heads []hom.CAtom
	ids   []uint32
	atoms []core.Atom
	table []int32 // 1-based arena offsets of id entries; 0 = empty slot
	n     int
}

// batch buffers base facts for the merge.
func batch(facts []core.Atom) *derived {
	b := &derived{atoms: facts}
	for k := range facts {
		b.ids = append(b.ids, uint32(k))
	}
	return b
}

// reset empties the buffer for the next join, keeping its storage.
func (b *derived) reset() {
	b.ids, b.atoms, b.n = b.ids[:0], b.atoms[:0], 0
	clear(b.table)
}

// add appends head h's instantiation ids, whose database.HashIDs is
// hash, unless the buffer holds it already.
func (b *derived) add(hash uint64, h uint32, ids []uint32) {
	if 4*(b.n+1) >= 3*len(b.table) {
		b.grow()
	}
	mask := uint64(len(b.table) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		off := b.table[i]
		if off == 0 {
			b.table[i] = int32(len(b.ids) + 1)
			b.ids = append(append(b.ids, h), ids...)
			b.n++
			return
		}
		if e := b.ids[off-1:]; e[0] == h && slices.Equal(e[1:1+len(ids)], ids) {
			return
		}
	}
}

// addAtom appends a materialized head instantiation.
func (b *derived) addAtom(a core.Atom) {
	b.ids = append(b.ids, uint32(len(b.heads)+len(b.atoms)))
	b.atoms = append(b.atoms, a)
}

// at returns the instantiation at arena offset i and the offset of the
// next one: its relation and id tuple, or, for a materialized head, nil
// ids and the atom.
func (b *derived) at(i int) (core.RelKey, []uint32, *core.Atom, int) {
	h := int(b.ids[i])
	if h >= len(b.heads) {
		a := &b.atoms[h-len(b.heads)]
		return a.Key(), nil, a, i + 1
	}
	w := len(b.heads[h].Pos)
	return b.heads[h].RK, b.ids[i+1 : i+1+w], nil, i + 1 + w
}

func (b *derived) grow() {
	nt := make([]int32, max(16, 2*len(b.table)))
	mask := uint64(len(nt) - 1)
	for _, off := range b.table {
		if off == 0 {
			continue
		}
		_, ids, _, _ := b.at(int(off - 1))
		i := database.HashIDs(ids) & mask
		for nt[i] != 0 {
			i = (i + 1) & mask
		}
		nt[i] = off
	}
	b.table = nt
}
