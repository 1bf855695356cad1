package database

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"guardedrules/internal/core"
)

// relModel is the reference of one binary relation: its id tuples by
// ordinal, with the store's removal rule (the last fact moves into the
// freed ordinal).
type relModel struct{ facts [][2]uint32 }

func (m *relModel) clone() *relModel { return &relModel{facts: slices.Clone(m.facts)} }

func (m *relModel) add(f [2]uint32) {
	if !slices.Contains(m.facts, f) {
		m.facts = append(m.facts, f)
	}
}

func (m *relModel) remove(f [2]uint32) {
	if ix := slices.Index(m.facts, f); ix >= 0 {
		last := len(m.facts) - 1
		m.facts[ix] = m.facts[last]
		m.facts = m.facts[:last]
	}
}

// pagedSide is one database of a Clone pair and the model of its
// relation R.
type pagedSide struct {
	name string
	d    *Database
	m    *relModel
}

var pagedRel = core.RelKey{Name: "R", Arity: 2}

// pagedTerm is the constant interned as id i by pagedBase.
func pagedTerm(i uint32) core.Term { return core.Const(fmt.Sprintf("c%d", i)) }

func (s *pagedSide) add(f [2]uint32) {
	s.d.Add(core.NewAtom("R", pagedTerm(f[0]), pagedTerm(f[1])))
	s.m.add(f)
}

func (s *pagedSide) remove(f [2]uint32) {
	s.d.Retract(core.NewAtom("R", pagedTerm(f[0]), pagedTerm(f[1])))
	s.m.remove(f)
}

// removeAt removes the fact at ordinal ix.
func (s *pagedSide) removeAt(ix int) { s.remove(s.m.facts[ix]) }

// check compares R's handle with the model: the tuple of every ordinal,
// IDTuples, Has, and the posting list and distinct count of every id
// below ids at both positions.
func (s *pagedSide) check(t *testing.T, step string, ids uint32) {
	t.Helper()
	r := s.d.Rel(pagedRel)
	if r.Len() != len(s.m.facts) {
		t.Fatalf("%s, %s: Len = %d, want %d", s.name, step, r.Len(), len(s.m.facts))
	}
	var flat []uint32
	for ix, f := range s.m.facts {
		if !slices.Equal(r.Tuple(ix), f[:]) {
			t.Fatalf("%s, %s: Tuple(%d) = %v, want %v", s.name, step, ix, r.Tuple(ix), f)
		}
		if !r.Has(f[:]) {
			t.Fatalf("%s, %s: Has(%v) = false", s.name, step, f)
		}
		flat = append(flat, f[:]...)
	}
	if got := s.d.IDTuples(pagedRel); !slices.Equal(got, flat) {
		t.Fatalf("%s, %s: IDTuples differs from the model", s.name, step)
	}
	if r.Has([]uint32{ids, ids}) {
		t.Fatalf("%s, %s: Has an absent tuple", s.name, step)
	}
	for pos := 0; pos < 2; pos++ {
		want := map[uint32][]int32{}
		for ix, f := range s.m.facts {
			want[f[pos]] = append(want[f[pos]], int32(ix))
		}
		if r.Distinct(pos) != len(want) {
			t.Fatalf("%s, %s: Distinct(%d) = %d, want %d", s.name, step, pos, r.Distinct(pos), len(want))
		}
		for id := uint32(0); id <= ids; id++ {
			if got := r.Posting(pos, id); !slices.Equal(got, want[id]) {
				t.Fatalf("%s, %s: Posting(%d, %d) = %v, want %v", s.name, step, pos, id, got, want[id])
			}
		}
	}
}

// frozen holds the slices a shared handle of R returned, by Tuple for
// every ordinal and by Posting for every id up to ids at both positions,
// beside copies of their contents: a shared relation is never written
// again, so they must keep those contents whatever either side writes.
type frozen struct {
	side              string
	tuples, tupleWant [][]uint32
	posts, postWant   [][]int32
}

// freeze reads R through the side's handle; nil when the handle is not
// shared.
func (s *pagedSide) freeze(ids uint32) *frozen {
	r := s.d.Rel(pagedRel)
	if r == nil || !r.shared.Load() {
		return nil
	}
	f := &frozen{side: s.name}
	for ix := 0; ix < r.Len(); ix++ {
		f.tuples = append(f.tuples, r.Tuple(ix))
		f.tupleWant = append(f.tupleWant, slices.Clone(r.Tuple(ix)))
	}
	for pos := 0; pos < 2; pos++ {
		for id := uint32(0); id <= ids; id++ {
			f.posts = append(f.posts, r.Posting(pos, id))
			f.postWant = append(f.postWant, slices.Clone(r.Posting(pos, id)))
		}
	}
	return f
}

func (f *frozen) check(t *testing.T, step string) {
	t.Helper()
	if f == nil {
		return
	}
	for i := range f.tuples {
		if !slices.Equal(f.tuples[i], f.tupleWant[i]) {
			t.Fatalf("%s, %s: a tuple read from the shared handle changed to %v, want %v", f.side, step, f.tuples[i], f.tupleWant[i])
		}
	}
	for i := range f.posts {
		if !slices.Equal(f.posts[i], f.postWant[i]) {
			t.Fatalf("%s, %s: a posting list read from the shared handle changed to %v, want %v", f.side, step, f.posts[i], f.postWant[i])
		}
	}
}

// pagedBase returns a database that interns c0..c<ids-1> as ids 0..ids-1,
// holding the facts of R, and the model of R.
func pagedBase(ids uint32, facts [][2]uint32) *pagedSide {
	s := &pagedSide{name: "original", d: New(), m: &relModel{}}
	for i := uint32(0); i < ids; i++ {
		s.d.InternTerm(pagedTerm(i))
	}
	for _, f := range facts {
		s.add(f)
	}
	return s
}

// fork clones the side's database and model.
func (s *pagedSide) fork(name string) *pagedSide {
	return &pagedSide{name: name, d: s.d.Clone(), m: s.m.clone()}
}

// A relation's id tuples, seen-set and posting lists are paged
// copy-on-write. Writes at page edges through either side of a Clone,
// and through two clones of one shared relation, must leave each side's
// R equal to its model and every other side untouched.
func TestRelPagesMatchModel(t *testing.T) {
	const ids = 3*postPage + 9
	var facts [][2]uint32
	for i := uint32(0); i < 2*relPage+3; i++ {
		// Position 0 spans every posting page; position 1 holds a few
		// long lists. The pair determines i, so the facts are distinct.
		facts = append(facts, [2]uint32{i % ids, i%5 + 5*(i/ids)})
	}
	orig := pagedBase(ids, facts)
	orig.check(t, "base", ids)

	t.Run("ordinals", func(t *testing.T) {
		orig := pagedBase(ids, facts)
		clone := orig.fork("clone")
		steps := []struct {
			name string
			do   func()
		}{
			// The last fact, on page 2, moves into ordinal 0 on page 0.
			{"remove ordinal 0", func() { clone.removeAt(0) }},
			{"remove ordinal page-1", func() { clone.removeAt(relPage - 1) }},
			{"remove ordinal page", func() { clone.removeAt(relPage) }},
			{"remove the last ordinal", func() { clone.removeAt(len(clone.m.facts) - 1) }},
			{"remove the last ordinal down to page-1 facts", func() {
				for len(clone.m.facts) > relPage-1 {
					clone.removeAt(len(clone.m.facts) - 1)
				}
			}},
			{"insert at ordinals page-1 and page", func() {
				clone.add([2]uint32{ids - 1, 0})
				clone.add([2]uint32{ids - 1, 1})
			}},
			{"re-add removed facts", func() {
				for _, f := range facts {
					clone.add(f)
				}
			}},
			{"original: remove ordinal 0 and page", func() {
				orig.removeAt(0)
				orig.removeAt(relPage)
			}},
			{"original: insert new ids", func() {
				orig.add([2]uint32{ids - 2, ids - 2})
				orig.add([2]uint32{0, ids - 1})
			}},
		}
		for _, st := range steps {
			fc, fo := clone.freeze(ids), orig.freeze(ids)
			st.do()
			fc.check(t, st.name)
			fo.check(t, st.name)
			clone.check(t, st.name, ids)
			orig.check(t, st.name, ids)
		}
	})

	t.Run("two clones of one shared relation", func(t *testing.T) {
		orig := pagedBase(ids, facts)
		a, b := orig.fork("clone a"), orig.fork("clone b")
		frozen := []*frozen{orig.freeze(ids), a.freeze(ids), b.freeze(ids)}
		// The posting lists of position 1 have spare capacity; a clone
		// that appended into the shared backing array would overwrite
		// the other clone's ordinal, which differs because clone a
		// first takes one more fact.
		a.add([2]uint32{ids - 1, ids - 1})
		for v := uint32(0); v < 5; v++ {
			a.add([2]uint32{ids - 2, v})
			b.add([2]uint32{ids - 3, v})
		}
		a.remove(facts[3])
		b.remove(facts[7])
		for _, f := range frozen {
			f.check(t, "independent writes")
		}
		for _, s := range []*pagedSide{a, b, orig} {
			s.check(t, "independent writes", ids)
		}
	})

	t.Run("high ids first", func(t *testing.T) {
		// The first fact's ids start the posting directories and the
		// ACDom counts at a page above 0, so each side's first write of
		// a lower id after the Clone extends a forked directory
		// downwards.
		const ids = acdomPage + 2*postPage
		orig := pagedBase(ids, [][2]uint32{{ids - 1, ids - 2}})
		clone := orig.fork("clone")
		acdom := func(s *pagedSide, step string) {
			t.Helper()
			want := map[uint32]int{}
			for _, f := range s.m.facts {
				want[f[0]]++
				want[f[1]]++
			}
			for id := uint32(0); id < ids; id++ {
				if got := s.d.ACDomSupport(pagedTerm(id)); got != want[id] {
					t.Fatalf("%s, %s: ACDomSupport(c%d) = %d, want %d", s.name, step, id, got, want[id])
				}
			}
		}
		steps := []struct {
			name string
			do   func()
		}{
			{"clone: write low ids", func() { clone.add([2]uint32{0, 1}) }},
			{"original: write low ids", func() { orig.add([2]uint32{2, postPage}) }},
			{"clone: write below its first page", func() { clone.add([2]uint32{acdomPage - 1, 3}) }},
			{"original: remove the first fact", func() { orig.removeAt(0) }},
		}
		for _, st := range steps {
			fc, fo := clone.freeze(ids), orig.freeze(ids)
			st.do()
			fc.check(t, st.name)
			fo.check(t, st.name)
			for _, s := range []*pagedSide{clone, orig} {
				s.check(t, st.name, ids)
				acdom(s, st.name)
			}
		}
	})

	t.Run("seen-set backshift across a page", func(t *testing.T) {
		// With 600 facts the seen-set has 1,024 slots. Three tuples hash
		// to the last slot of page 0; the fillers hash well after it and
		// well before the table wraps, so the three form one cluster that
		// runs into page 1.
		const n, mask = 600, 1023
		home := func(f [2]uint32) uint64 { return HashIDs(f[:]) & mask }
		var collide, fill [][2]uint32
		for x := uint32(0); x < ids && (len(collide) < 3 || len(fill) < n); x++ {
			for y := uint32(0); y < ids && (len(collide) < 3 || len(fill) < n); y++ {
				f := [2]uint32{x, y}
				switch h := home(f); {
				case h == seenPage-1 && len(collide) < 3:
					collide = append(collide, f)
				case h > seenPage+40 && h < mask-40 && len(fill) < n:
					fill = append(fill, f)
				}
			}
		}
		if len(collide) < 3 || len(fill) < n {
			t.Fatal("not enough tuples for the cluster")
		}
		orig := pagedBase(ids, append(collide, fill[:n-3]...))
		clone := orig.fork("clone")
		r := clone.d.Rel(pagedRel)
		if r.seen.mask != mask {
			t.Fatalf("seen-set has %d slots, want %d", r.seen.mask+1, mask+1)
		}
		at := r.Tuple(seenOrd(r.seen.slot(seenPage - 1)))
		clone.remove([2]uint32{at[0], at[1]})
		if r := clone.d.Rel(pagedRel); r.seen.slot(seenPage-1) == 0 || r.seen.slot(seenPage+1) != 0 {
			t.Fatal("the removal did not shift the cluster back across the page boundary")
		}
		clone.check(t, "backshift", ids)
		orig.check(t, "backshift", ids)
		for _, f := range collide {
			clone.remove(f)
			clone.add(f)
		}
		clone.check(t, "re-add the cluster", ids)
		orig.check(t, "re-add the cluster", ids)
	})
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// The first write into a clone of a large relation copies the pages it
// touches, not the relation.
func TestRelFirstWriteCopiesPages(t *testing.T) {
	const n = 100_000
	d := New()
	for i := 0; i < n; i++ {
		d.Add(core.NewAtom("R", core.Const(fmt.Sprintf("c%d", i)), core.Const(fmt.Sprintf("c%d", (i*7+1)%n))))
	}
	c := d.Clone()
	fact := core.NewAtom("R", core.Const("c5"), core.Const("c5"))
	if got := allocated(func() { c.Add(fact) }); got >= 128<<10 {
		t.Errorf("the first write after Clone allocated %d bytes, want < 128 KiB", got)
	}
	if !c.Has(fact) || d.Has(fact) || c.Len() != d.Len()+1 {
		t.Error("the write did not land on the clone only")
	}
}

// A relation whose facts hold only high term ids allocates posting pages
// for those ids alone, not a table over every id below them.
func TestRelSparsePostings(t *testing.T) {
	const n = 100_000
	d := New()
	for i := 0; i < n; i++ {
		d.Add(core.NewAtom("P", core.Const(fmt.Sprintf("c%d", i))))
	}
	fact := core.NewAtom("S", core.Const(fmt.Sprintf("c%d", n-1)))
	if got := allocated(func() { d.Add(fact) }); got >= 4<<10 {
		t.Errorf("a one-fact relation over id %d allocated %d bytes, want < 4 KiB", n-1, got)
	}
	if id, _ := d.TermID(fact.Args[0]); len(d.Rel(fact.Key()).Posting(0, id)) != 1 {
		t.Error("the fact is missing from its posting list")
	}
}
