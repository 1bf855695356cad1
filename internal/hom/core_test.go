package hom_test

import (
	"testing"

	"guardedrules/internal/chase"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/hom"
	"guardedrules/internal/parser"
)

func TestCoreDropsRedundantNull(t *testing.T) {
	// R(a,n1) is subsumed by R(a,b): the core is {R(a,b)}.
	atoms := []core.Atom{
		core.NewAtom("R", core.Const("a"), core.Const("b")),
		core.NewAtom("R", core.Const("a"), core.NewNull("n1")),
	}
	got, exact := hom.Core(atoms)
	if !exact {
		t.Fatal("small instance must be solved exactly")
	}
	if len(got) != 1 || !got[0].Equal(atoms[0]) {
		t.Errorf("core: %v", got)
	}
}

func TestCoreMergesDuplicateNulls(t *testing.T) {
	atoms := []core.Atom{
		core.NewAtom("R", core.Const("a"), core.NewNull("n1")),
		core.NewAtom("R", core.Const("a"), core.NewNull("n2")),
	}
	got, _ := hom.Core(atoms)
	if len(got) != 1 {
		t.Errorf("isomorphic null atoms must merge: %v", got)
	}
}

func TestCoreKeepsNecessaryNulls(t *testing.T) {
	// n1 is the only R-successor of a: nothing to map it to.
	atoms := []core.Atom{
		core.NewAtom("A", core.Const("a")),
		core.NewAtom("R", core.Const("a"), core.NewNull("n1")),
	}
	got, _ := hom.Core(atoms)
	if len(got) != 2 {
		t.Errorf("necessary null dropped: %v", got)
	}
	if !hom.IsCore(got) {
		t.Error("result must be a core")
	}
}

func TestCoreChainCollapse(t *testing.T) {
	// A null cycle n1→n2→n1 maps onto the constant loop a→a.
	atoms := []core.Atom{
		core.NewAtom("E", core.Const("a"), core.Const("a")),
		core.NewAtom("E", core.NewNull("n1"), core.NewNull("n2")),
		core.NewAtom("E", core.NewNull("n2"), core.NewNull("n1")),
	}
	got, _ := hom.Core(atoms)
	if len(got) != 1 {
		t.Errorf("cycle must collapse onto the loop: %v", got)
	}
}

// The oblivious and restricted chase have the same core (both are
// universal models).
func TestChaseVariantsShareCore(t *testing.T) {
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y) -> B(Y).
	`)
	d := database.FromAtoms(parser.MustParseFacts(`A(a). R(a,b).`))
	ob, err := chase.Run(th, d, chase.Options{Variant: chase.Oblivious})
	if err != nil {
		t.Fatal(err)
	}
	re, err := chase.Run(th, d, chase.Options{Variant: chase.Restricted})
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := hom.Core(ob.DB.UserFacts())
	c2, _ := hom.Core(re.DB.UserFacts())
	if len(c1) != len(c2) {
		t.Errorf("cores differ in size: %d vs %d\n%v\n%v", len(c1), len(c2), c1, c2)
	}
	if !hom.Equivalent(c1, c2) {
		t.Error("cores must be homomorphically equivalent")
	}
	// The oblivious chase created a redundant null here; its core is
	// strictly smaller.
	if len(c1) >= len(ob.DB.UserFacts()) {
		t.Error("oblivious chase core must be smaller than the chase")
	}
}

func TestCoreEquivalence(t *testing.T) {
	atoms := []core.Atom{
		core.NewAtom("R", core.Const("a"), core.NewNull("n1")),
		core.NewAtom("S", core.NewNull("n1"), core.NewNull("n2")),
		core.NewAtom("R", core.Const("a"), core.NewNull("n3")),
	}
	got, _ := hom.Core(atoms)
	if !hom.Equivalent(atoms, got) {
		t.Error("core must be homomorphically equivalent to the input")
	}
	// Idempotence.
	again, _ := hom.Core(got)
	if len(again) != len(got) {
		t.Error("Core must be idempotent")
	}
}

func TestCoreNoNulls(t *testing.T) {
	atoms := []core.Atom{core.NewAtom("R", core.Const("a"), core.Const("b"))}
	got, exact := hom.Core(atoms)
	if !exact || len(got) != 1 {
		t.Errorf("ground instances are their own core: %v", got)
	}
}
