package datalog

import (
	"fmt"
	"testing"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/parser"
	"guardedrules/internal/store/segment"
)

// TestExplicitACDomPinnedInAnyOrder adds an explicit ACDom(a) before and
// after a fact that derives it, then retracts that fact: ACDom(a) stays
// pinned whatever the order, in a Database, in a segment store after
// close and reopen, and in a maintained fixpoint whose rule reads ACDom.
func TestExplicitACDomPinnedInAnyOrder(t *testing.T) {
	edge := core.NewAtom("E", core.Const("a"), core.Const("b"))
	dom := core.NewAtom(core.ACDom, core.Const("a"))
	type op struct {
		add  bool
		fact core.Atom
	}
	orders := map[string][]op{
		"derived-then-explicit": {{true, edge}, {true, dom}, {false, edge}},
		"explicit-then-derived": {{true, dom}, {true, edge}, {false, edge}},
	}
	p, err := Compile(parser.MustParseTheory(`ACDom(X) -> Dom(X).`))
	if err != nil {
		t.Fatal(err)
	}
	pinned := func(t *testing.T, where string, d *database.Database) {
		t.Helper()
		if !d.Has(dom) || !d.ACDomPinned(core.Const("a")) {
			t.Fatalf("%s: ACDom(a) present %v, pinned %v; want both", where, d.Has(dom), d.ACDomPinned(core.Const("a")))
		}
	}
	for name, ops := range orders {
		t.Run(name, func(t *testing.T) {
			d := database.New()
			dir := t.TempDir()
			s, err := segment.Open(dir, segment.Options{})
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMaintained(p, database.New(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range ops {
				batch := []core.Atom{o.fact}
				if o.add {
					d.Add(o.fact)
					s.Add(o.fact)
					_, _, err = m.Apply(batch, nil, Options{})
				} else {
					d.Retract(o.fact)
					s.Retract(o.fact)
					_, _, err = m.Apply(nil, batch, Options{})
				}
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			pinned(t, "database", d)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := segment.Open(dir, segment.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			pinned(t, "reopened segment store", r.Clone())
			pinned(t, "maintained fixpoint", m.Current())
			if !m.Current().Has(core.NewAtom("Dom", core.Const("a"))) {
				t.Fatal("maintained fixpoint lost Dom(a)")
			}
		})
	}
	// One batch that retracts the deriving fact and adds ACDom(a): the
	// pin must hold across the batch's deletions, so the net delta
	// removes b's facts but nothing of a.
	m, err := NewMaintained(p, database.FromAtoms([]core.Atom{edge}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, delta, err := m.Apply([]core.Atom{dom}, []core.Atom{edge}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pinned(t, "maintained fixpoint after a mixed batch", m.Current())
	if got := fmt.Sprint(delta.Added, delta.Removed); got != "[] [E(a,b) Dom(b) ACDom(b)]" {
		t.Fatalf("mixed batch delta added, removed = %s", got)
	}
}
