package database

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"guardedrules/internal/core"
)

// The ACDom support counts are paged copy-on-write. Writes through both
// sides of a Clone, at ids on either side of a page boundary, at the
// first and last id of a page and past the last page, must leave each
// side's ACDomSupport, Constants and derived ACDom facts equal to a map
// model of its facts, with the other side untouched.
func TestACDomPagedCounts(t *testing.T) {
	c := func(i int) core.Term { return core.Const(fmt.Sprintf("c%d", i)) }
	type op struct {
		add bool
		a   core.Atom
	}
	// apply runs ops on d and on the model facts.
	apply := func(d *Database, model map[string]core.Atom, ops []op) {
		for _, o := range ops {
			if o.add {
				d.Add(o.a)
				model[o.a.String()] = o.a
			} else {
				d.Retract(o.a)
				delete(model, o.a.String())
			}
		}
	}
	check := func(side string, d *Database, model map[string]core.Atom) {
		t.Helper()
		support := map[core.Term]int{}
		for _, a := range model {
			for _, tm := range a.Args {
				support[tm]++
			}
		}
		var want []core.Term
		for tm, n := range support {
			want = append(want, tm)
			if got := d.ACDomSupport(tm); got != n {
				t.Errorf("%s: ACDomSupport(%s) = %d, want %d", side, tm, got, n)
			}
		}
		core.SortTerms(want)
		if got := d.Constants(); !slices.Equal(got, want) {
			t.Errorf("%s: Constants() has %d terms, want %d", side, len(got), len(want))
		}
		var dom []core.Term
		for _, a := range d.Facts(acdomKey) {
			dom = append(dom, a.Args[0])
		}
		core.SortTerms(dom)
		if !slices.Equal(dom, want) {
			t.Errorf("%s: %d ACDom facts, want one per supported constant (%d)", side, len(dom), len(want))
		}
	}

	// c<i> is interned as id i: ids 0..1199 span pages 0 and 1.
	base := map[string]core.Atom{}
	d := New()
	var ops []op
	for i := 0; i < 1200; i++ {
		ops = append(ops, op{true, core.NewAtom("P", c(i))})
	}
	apply(d, base, ops)
	if id, _ := d.TermID(c(1024)); id != 1024 {
		t.Fatalf("c1024 has id %d, want 1024", id)
	}
	clone := d.Clone()
	cloneModel := map[string]core.Atom{}
	for k, a := range base {
		cloneModel[k] = a
	}
	// Past the last page: ids 1200..2299 on either side, from different
	// terms.
	fresh := func(prefix string) []op {
		var ops []op
		for i := 0; i < 1100; i++ {
			ops = append(ops, op{true, core.NewAtom("Q", core.Const(fmt.Sprintf("%s%d", prefix, i)))})
		}
		return ops
	}
	apply(clone, cloneModel, append([]op{
		{true, core.NewAtom("R", c(0), c(1023))},
		{true, core.NewAtom("R", c(1024), c(1024))},
		{false, core.NewAtom("P", c(1023))},
		{false, core.NewAtom("P", c(1024))},
		{false, core.NewAtom("P", c(1))},
	}, fresh("x")...))
	check("clone", clone, cloneModel)
	check("original before its writes", d, base)
	apply(d, base, append([]op{
		{false, core.NewAtom("P", c(0))},
		{false, core.NewAtom("P", c(1024))},
		{true, core.NewAtom("S", c(1023), c(1023))},
	}, fresh("y")...))
	check("original", d, base)
	check("clone after the original's writes", clone, cloneModel)
	// Retract back to zero past the last page on one side only.
	apply(clone, cloneModel, []op{{false, core.NewAtom("Q", core.Const("x1099"))}})
	check("clone", clone, cloneModel)
	check("original", d, base)
}

// A snapshot of a large database pays for the first write to its ACDom
// counts with one page, not with a copy of every count.
func TestACDomFirstWriteCopiesOnePage(t *testing.T) {
	d := New()
	for i := 0; i < 100_000; i++ {
		d.Add(core.NewAtom("P", core.Const(fmt.Sprintf("c%d", i))))
	}
	c := d.Clone()
	fact := core.NewAtom("Q", core.Const("c5"))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Add(fact)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<10 {
		t.Errorf("the first write after Clone allocated %d bytes, want < 8 KiB", got)
	}
	if c.ACDomSupport(fact.Args[0]) != 2 || d.ACDomSupport(fact.Args[0]) != 1 {
		t.Error("the write did not land on the clone's counts only")
	}
}
