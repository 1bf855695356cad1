package database

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"guardedrules/internal/core"
	"guardedrules/internal/parser"
)

func TestAddAndHas(t *testing.T) {
	d := New()
	a := core.NewAtom("R", core.Const("a"), core.Const("b"))
	if !d.Add(a) {
		t.Error("first Add must report new")
	}
	if d.Add(a) {
		t.Error("second Add must report duplicate")
	}
	if !d.Has(a) {
		t.Error("Has must find added atom")
	}
	if d.Has(core.NewAtom("R", core.Const("b"), core.Const("a"))) {
		t.Error("Has must distinguish argument order")
	}
}

func TestACDomMaintenance(t *testing.T) {
	d := New()
	d.Add(core.NewAtom("R", core.Const("a"), core.NewNull("n1")))
	if !d.Has(core.NewAtom(core.ACDom, core.Const("a"))) {
		t.Error("ACDom(a) must be derived")
	}
	if d.Has(core.NewAtom(core.ACDom, core.NewNull("n1"))) {
		t.Error("nulls must not enter ACDom")
	}
	cs := d.Constants()
	if len(cs) != 1 || cs[0] != core.Const("a") {
		t.Errorf("Constants wrong: %v", cs)
	}
	// ACDom facts themselves must not feed ACDom.
	d2 := New()
	d2.Add(core.NewAtom(core.ACDom, core.Const("z")))
	if len(d2.Constants()) != 0 {
		t.Error("explicit ACDom fact must not create active domain constants")
	}
}

func TestIndexLookups(t *testing.T) {
	d := FromAtoms(parser.MustParseFacts(`
		R(a,b). R(a,c). R(b,c). S(a).
	`))
	rk := core.RelKey{Name: "R", Arity: 2}
	if n := len(d.Facts(rk)); n != 3 {
		t.Errorf("Facts(R): %d", n)
	}
	withA := d.FactsWith(rk, 0, core.Const("a"))
	if len(withA) != 2 {
		t.Errorf("FactsWith(R,0,a): %v", withA)
	}
	if c, _ := d.TermID(core.Const("c")); d.CountWithID(rk, 1, c) != 2 {
		t.Error("CountWithID wrong")
	}
	if len(d.FactsWith(core.RelKey{Name: "T", Arity: 1}, 0, core.Const("a"))) != 0 {
		t.Error("missing relation must return no facts")
	}
}

func TestAnnotatedFacts(t *testing.T) {
	d := New()
	a := core.Atom{Relation: "R", Annotation: []core.Term{core.Const("x")}, Args: []core.Term{core.Const("a")}}
	b := core.NewAtom("R", core.Const("a"))
	d.Add(a)
	if d.Has(b) {
		t.Error("annotated and plain atoms must be distinct")
	}
	d.Add(b)
	if d.Len() != 4 { // R[x](a), R(a), ACDom(x), ACDom(a)
		t.Errorf("Len: %d", d.Len())
	}
	// Index must cover annotation positions (flat position 1 here).
	rk := a.Key()
	if len(d.FactsWith(rk, 1, core.Const("x"))) != 1 {
		t.Error("annotation position not indexed")
	}
}

func TestNonGroundRejected(t *testing.T) {
	d := New()
	if d.Add(core.NewAtom("R", core.Var("x"))) {
		t.Error("Add of non-ground atom must report false")
	}
	added, err := d.AddNotify(core.NewAtom("R", core.Var("x")), nil)
	if added || !errors.Is(err, ErrNotGround) {
		t.Errorf("AddNotify of non-ground atom = (%v, %v), want (false, ErrNotGround)", added, err)
	}
	if d.Len() != 0 {
		t.Errorf("rejected atom must not be inserted, Len=%d", d.Len())
	}
	if _, err := d.AddNotify(core.NewAtom("R", core.Const("a")), nil); err != nil {
		t.Errorf("AddNotify of ground atom = %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	d := FromAtoms(parser.MustParseFacts(`R(a,b).`))
	c := d.Clone()
	c.Add(core.NewAtom("S", core.Const("z")))
	if d.Has(core.NewAtom("S", core.Const("z"))) {
		t.Error("Clone must be independent")
	}
	if !c.Has(core.NewAtom("R", core.Const("a"), core.Const("b"))) {
		t.Error("Clone must copy facts")
	}
}

func TestRestrictAndGroundAtoms(t *testing.T) {
	d := New()
	d.Add(core.NewAtom("R", core.Const("a"), core.NewNull("n")))
	d.Add(core.NewAtom("S", core.Const("a")))
	r := d.Restrict(func(k core.RelKey) bool { return k.Name == "S" })
	if r.Has(core.NewAtom("R", core.Const("a"), core.NewNull("n"))) {
		t.Error("Restrict must drop filtered relations")
	}
	ga := d.GroundAtoms()
	if len(ga) != 1 || ga[0].Relation != "S" {
		t.Errorf("GroundAtoms must exclude atoms with nulls: %v", ga)
	}
}

func TestSameGroundAtoms(t *testing.T) {
	a := FromAtoms(parser.MustParseFacts(`R(a,b). S(c).`))
	b := FromAtoms(parser.MustParseFacts(`S(c). R(a,b).`))
	if ok, _ := SameGroundAtoms(a, b); !ok {
		t.Error("equal databases must compare equal")
	}
	b.Add(core.NewAtom("T", core.Const("z")))
	if ok, diff := SameGroundAtoms(a, b); ok || diff == "" {
		t.Error("difference must be reported")
	}
}

// Property: Add/Has agree with a naive map-based implementation.
func TestDatabaseAgainstNaiveModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(n uint8) bool {
		d := New()
		naive := map[string]bool{}
		consts := []core.Term{core.Const("a"), core.Const("b"), core.Const("c")}
		for i := 0; i < int(n%64)+1; i++ {
			a := core.NewAtom("R", consts[rng.Intn(3)], consts[rng.Intn(3)])
			d.Add(a)
			naive[a.String()] = true
		}
		rk := core.RelKey{Name: "R", Arity: 2}
		if len(d.Facts(rk)) != len(naive) {
			return false
		}
		for _, x := range consts {
			for _, y := range consts {
				a := core.NewAtom("R", x, y)
				if d.Has(a) != naive[a.String()] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTermsAndNulls(t *testing.T) {
	d := New()
	d.Add(core.NewAtom("R", core.Const("a"), core.NewNull("n1")))
	d.Add(core.NewAtom("S", core.NewNull("n2")))
	ns := d.Nulls()
	if len(ns) != 2 {
		t.Errorf("Nulls: %v", ns)
	}
	ts := d.Terms()
	if len(ts) != 3 {
		t.Errorf("Terms: %v", ts)
	}
}

func TestForEachWithIDAndFact(t *testing.T) {
	d := FromAtoms(parser.MustParseFacts(`R(a,b). R(a,c). R(b,c).`))
	rk := core.RelKey{Name: "R", Arity: 2}
	a, _ := d.TermID(core.Const("a"))
	count := 0
	d.ForEachWithID(rk, 0, a, func(core.Atom) bool {
		count++
		return true
	})
	if count != 2 {
		t.Errorf("ForEachWithID: %d", count)
	}
	// Early stop.
	count = 0
	d.ForEachFact(rk, func(core.Atom) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("ForEachFact early stop: %d", count)
	}
	// Missing relation: no calls, no panic.
	d.ForEachWithID(core.RelKey{Name: "Z", Arity: 1}, 0, a, func(core.Atom) bool {
		t.Error("must not be called")
		return true
	})
}
