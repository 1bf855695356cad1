package database

import (
	"fmt"
	"testing"
	"unsafe"

	"guardedrules/internal/core"
	"guardedrules/internal/parser"
)

// Regression for the key-collision soundness bug: the old string dedup key
// serialized atoms without escaping, so R("a,0b") and R(a,b) packed to the
// same key and Has reported the absent atom as present. Interned id tuples
// are scoped by relation key (arity included), so these can never collide.
func TestNoCollisionAcrossArity(t *testing.T) {
	d := New()
	d.Add(core.NewAtom("R", core.Const("a,0b")))
	if d.Has(core.NewAtom("R", core.Const("a"), core.Const("b"))) {
		t.Error("R(a,b) reported present after adding R(\"a,0b\")")
	}
	if !d.Has(core.NewAtom("R", core.Const("a,0b"))) {
		t.Error("R(\"a,0b\") must be present")
	}
	// Same check with the separator on the other side.
	d2 := New()
	d2.Add(core.NewAtom("R", core.Const("a"), core.Const("b")))
	if d2.Has(core.NewAtom("R", core.Const("a,0b"))) {
		t.Error("R(\"a,0b\") reported present after adding R(a,b)")
	}
}

// Annotation and argument positions must never be conflated: R[x](y) and
// R(x,y) have different relation keys (annotation arity 1 vs 0).
func TestNoCollisionAcrossAnnotationBoundary(t *testing.T) {
	d := New()
	ann := core.Atom{Relation: "R", Annotation: []core.Term{core.Const("x")}, Args: []core.Term{core.Const("y")}}
	d.Add(ann)
	if d.Has(core.NewAtom("R", core.Const("x"), core.Const("y"))) {
		t.Error("R(x,y) reported present after adding R[x](y)")
	}
	if d.Has(core.NewAtom("R", core.Const("y"))) {
		t.Error("R(y) reported present after adding R[x](y)")
	}
	if !d.Has(ann) {
		t.Error("R[x](y) must be present")
	}
	// Bracket-like characters inside constant names must not fake an
	// annotation either.
	d3 := New()
	d3.Add(core.NewAtom("R[x]", core.Const("y")))
	if d3.Has(ann) {
		t.Error("relation name containing brackets must not collide with annotation")
	}
}

// Kinds are part of term identity: a constant and a null with the same
// name intern to different ids.
func TestInternDistinguishesKinds(t *testing.T) {
	d := New()
	d.Add(core.NewAtom("R", core.Const("n")))
	if d.Has(core.NewAtom("R", core.NewNull("n"))) {
		t.Error("null _:n must be distinct from constant n")
	}
}

func TestInternerRoundTrip(t *testing.T) {
	in := newInternTable()
	terms := []core.Term{
		core.Const("a"), core.NewNull("a"), core.Const("b"), core.Const(""),
	}
	ids := make([]uint32, len(terms))
	for i, tm := range terms {
		ids[i] = in.Intern(tm)
	}
	for i, tm := range terms {
		if got := in.Intern(tm); got != ids[i] {
			t.Errorf("re-intern of %v: id %d, want %d", tm, got, ids[i])
		}
		if got, ok := in.Lookup(tm); !ok || got != ids[i] {
			t.Errorf("lookup of %v: (%d,%v), want (%d,true)", tm, got, ok, ids[i])
		}
		if back := in.TermOf(ids[i]); back != tm {
			t.Errorf("TermOf(%d) = %v, want %v", ids[i], back, tm)
		}
	}
	if in.Len() != len(terms) {
		t.Errorf("Len = %d, want %d", in.Len(), len(terms))
	}
	if _, ok := in.Lookup(core.Const("never")); ok {
		t.Error("Lookup of never-interned term must report absent")
	}
}

func TestTermIDExposedOnDatabase(t *testing.T) {
	d := New()
	d.Add(core.NewAtom("R", core.Const("a"), core.Const("b")))
	id, ok := d.TermID(core.Const("a"))
	if !ok {
		t.Fatal("TermID must resolve a stored term")
	}
	if d.Term(id) != core.Const("a") {
		t.Error("Term must invert TermID")
	}
	rk := core.RelKey{Name: "R", Arity: 2}
	if d.CountWithID(rk, 0, id) != 1 {
		t.Error("CountWithID wrong")
	}
	n := 0
	d.ForEachWithID(rk, 0, id, func(core.Atom) bool { n++; return true })
	if n != 1 {
		t.Errorf("ForEachWithID visited %d facts, want 1", n)
	}
	if _, ok := d.TermID(core.Const("zzz")); ok {
		t.Error("TermID of absent term must report false")
	}
}

// AddNotify must report exactly the facts actually inserted: the atom and
// the ACDom facts of its fresh constants, and nothing on duplicates.
func TestAddNotifyReportsDerivedACDom(t *testing.T) {
	d := New()
	var got []string
	note := func(a core.Atom) { got = append(got, a.String()) }
	if added, err := d.AddNotify(core.NewAtom("R", core.Const("a"), core.NewNull("n1")), note); !added || err != nil {
		t.Fatalf("first insert = (%v, %v), must be new", added, err)
	}
	want := map[string]bool{"R(a,_:n1)": true, "ACDom(a)": true}
	if len(got) != len(want) {
		t.Fatalf("notified %v, want %v", got, want)
	}
	for _, s := range got {
		if !want[s] {
			t.Errorf("unexpected notification %s", s)
		}
	}
	got = nil
	if added, _ := d.AddNotify(core.NewAtom("R", core.Const("a"), core.NewNull("n1")), note); added {
		t.Error("duplicate must not be new")
	}
	if len(got) != 0 {
		t.Errorf("duplicate must not notify, got %v", got)
	}
	// A second fact over a known constant derives no new ACDom fact.
	got = nil
	d.AddNotify(core.NewAtom("S", core.Const("a")), note) //nolint:errcheck // ground atom
	if len(got) != 1 || got[0] != "S(a)" {
		t.Errorf("known constant must notify only the fact: %v", got)
	}
}

// Wide atoms exceed the stack key buffer and must still dedup correctly.
func TestWideAtoms(t *testing.T) {
	d := New()
	args := make([]core.Term, 40)
	for i := range args {
		args[i] = core.Const(fmt.Sprintf("c%d", i))
	}
	a := core.NewAtom("Wide", args...)
	if !d.Add(a) || d.Add(a) {
		t.Error("wide atom dedup broken")
	}
	if !d.Has(a) {
		t.Error("wide atom lookup broken")
	}
	args2 := append([]core.Term(nil), args...)
	args2[39] = core.Const("different")
	if d.Has(core.NewAtom("Wide", args2...)) {
		t.Error("wide atoms differing in the last position must be distinct")
	}
}

// pointsInto reports whether s is a non-empty substring of src's bytes.
func pointsInto(s, src string) bool {
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return len(s) > 0 && p >= lo && p < lo+uintptr(len(src))
}

// A database built from parsed facts keeps none of the source text
// alive: the parser hands out substrings of its input, and every term
// name, relation name and pinned ACDom term the database stores is its
// own copy. So a cached database never pins the request body it was
// loaded from, nor one of a later batch written into a clone.
func TestBuildPinsNoSource(t *testing.T) {
	src := "E(a,b). R[n](a,_:x). ACDom(z). E(b,c). Q()."
	atoms, err := parser.ParseFacts(src)
	if err != nil {
		t.Fatal(err)
	}
	if !pointsInto(atoms[0].Relation, src) || !pointsInto(atoms[1].Args[1].Name, src) {
		t.Fatal("parsed names are not substrings of the source: this test would check nothing")
	}
	check := func(d *Database, src string) {
		t.Helper()
		for _, tm := range d.intern.terms {
			if pointsInto(tm.Name, src) {
				t.Errorf("interned term %v points into the source", tm)
			}
		}
		for rk, r := range d.byRel {
			if pointsInto(rk.Name, src) || pointsInto(r.key.Name, src) {
				t.Errorf("relation %v points into the source", rk)
			}
		}
		for tm := range d.acdomX {
			if pointsInto(tm.Name, src) {
				t.Errorf("pinned ACDom term %v points into the source", tm)
			}
		}
	}
	d := FromAtoms(atoms)
	check(d, src)
	// A batch into a clone copies the shared relation E and interns d.
	batch := "E(c,d). E(a,b)."
	c := d.Clone()
	for _, a := range parser.MustParseFacts(batch) {
		c.Add(a)
	}
	check(c, batch)
}
