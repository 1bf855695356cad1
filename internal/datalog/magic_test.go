package datalog

import (
	"fmt"
	"testing"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/parser"
)

const ancestorProgram = `
	Par(X,Y) -> Anc(X,Y).
	Par(X,Z), Anc(Z,Y) -> Anc(X,Y).
`

// forest builds two disjoint descendant chains rooted at a and z.
func forest(n int) *database.Database {
	d := database.New()
	for i := 0; i+1 < n; i++ {
		d.Add(core.NewAtom("Par", core.Const(fmt.Sprintf("a%d", i)), core.Const(fmt.Sprintf("a%d", i+1))))
		d.Add(core.NewAtom("Par", core.Const(fmt.Sprintf("z%d", i)), core.Const(fmt.Sprintf("z%d", i+1))))
	}
	return d
}

func TestMagicAnswersMatchFullEvaluation(t *testing.T) {
	th := parser.MustParseTheory(ancestorProgram)
	d := forest(8)
	query := core.NewAtom("Anc", core.Const("a0"), core.Var("Y"))
	magicAns, _, err := AnswerWithMagic(th, query, d)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Eval(th, d)
	if err != nil {
		t.Fatal(err)
	}
	var fullAns [][]core.Term
	for _, f := range full.Facts(core.RelKey{Name: "Anc", Arity: 2}) {
		if f.Args[0] == core.Const("a0") {
			fullAns = append(fullAns, f.Args)
		}
	}
	if ok, diff := SameAnswers(magicAns, fullAns); !ok {
		t.Errorf("magic answers differ: %s", diff)
	}
	if len(magicAns) != 7 {
		t.Errorf("expected 7 descendants of a0, got %d", len(magicAns))
	}
}

// The point of magic sets: evaluation must not touch the irrelevant
// z-chain.
func TestMagicIsGoalDirected(t *testing.T) {
	th := parser.MustParseTheory(ancestorProgram)
	d := forest(16)
	query := core.NewAtom("Anc", core.Const("a0"), core.Var("Y"))
	_, fix, err := AnswerWithMagic(th, query, d)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Eval(th, d)
	if err != nil {
		t.Fatal(err)
	}
	// Full evaluation derives Anc for both chains (O(n²) facts); the magic
	// evaluation only follows a0's chain.
	fullAnc := len(full.Facts(core.RelKey{Name: "Anc", Arity: 2}))
	var magicAnc int
	for _, rk := range fix.Relations() {
		if rk.Name == "Anc__bf" {
			magicAnc = len(fix.Facts(rk))
		}
		if rk.Name == "Anc" {
			t.Error("magic program must not derive the unadorned relation")
		}
	}
	if magicAnc == 0 {
		t.Fatal("no adorned facts derived")
	}
	// The z-chain is never explored, so the adorned fact count is half of
	// the full evaluation's (the a-side work remains quadratic for this
	// left-recursive ancestor program — the classical behaviour).
	if magicAnc >= fullAnc {
		t.Errorf("magic evaluation not goal-directed: %d adorned vs %d full facts", magicAnc, fullAnc)
	}
	// No z-constants in the derived adorned facts.
	for _, f := range fix.Facts(core.RelKey{Name: "Anc__bf", Arity: 2}) {
		if f.Args[0].Name[0] == 'z' || f.Args[1].Name[0] == 'z' {
			t.Errorf("irrelevant fact derived: %v", f)
		}
	}
}

func TestMagicBoundSecondArgument(t *testing.T) {
	th := parser.MustParseTheory(ancestorProgram)
	d := forest(6)
	// Who are the ancestors of a4? Query Anc(X, a4): adornment fb.
	query := core.NewAtom("Anc", core.Var("X"), core.Const("a4"))
	ans, _, err := AnswerWithMagic(th, query, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 4 {
		t.Errorf("expected 4 ancestors of a4, got %d: %v", len(ans), ans)
	}
}

func TestMagicFullyBoundQuery(t *testing.T) {
	th := parser.MustParseTheory(ancestorProgram)
	d := forest(6)
	yes, _, err := AnswerWithMagic(th, core.NewAtom("Anc", core.Const("a0"), core.Const("a3")), d)
	if err != nil {
		t.Fatal(err)
	}
	if len(yes) != 1 {
		t.Errorf("Anc(a0,a3) must hold: %v", yes)
	}
	no, _, err := AnswerWithMagic(th, core.NewAtom("Anc", core.Const("a3"), core.Const("a0")), d)
	if err != nil {
		t.Fatal(err)
	}
	if len(no) != 0 {
		t.Errorf("Anc(a3,a0) must not hold: %v", no)
	}
}

func TestMagicThroughEDBJoin(t *testing.T) {
	// Same-generation: the classic magic-sets stress test.
	th := parser.MustParseTheory(`
		Flat(X,Y) -> Sg(X,Y).
		Up(X,X1), Sg(X1,Y1), Down(Y1,Y) -> Sg(X,Y).
	`)
	d := database.FromAtoms(parser.MustParseFacts(`
		Up(a,b). Up(c,b).
		Flat(b,b).
		Down(b,a). Down(b,c).
	`))
	ans, _, err := AnswerWithMagic(th, core.NewAtom("Sg", core.Const("a"), core.Var("Y")), d)
	if err != nil {
		t.Fatal(err)
	}
	// a is same-generation with a and c (via up-flat-down).
	want := map[string]bool{"a": true, "c": true}
	got := map[string]bool{}
	for _, tu := range ans {
		got[tu[1].Name] = true
	}
	for w := range want {
		if !got[w] {
			t.Errorf("Sg(a,%s) missing (got %v)", w, ans)
		}
	}
}

func TestMagicRejectsUnsupported(t *testing.T) {
	neg := parser.MustParseTheory(`R(X), not S(X) -> P(X).`)
	if _, err := MagicRewrite(neg, core.NewAtom("P", core.Var("X"))); err == nil {
		t.Error("negation must be rejected")
	}
	ex := parser.MustParseTheory(`A(X) -> exists Y. R(X,Y).`)
	if _, err := MagicRewrite(ex, core.NewAtom("R", core.Var("X"), core.Var("Y"))); err == nil {
		t.Error("existential rules must be rejected")
	}
	edb := parser.MustParseTheory(`R(X) -> P(X).`)
	if _, err := MagicRewrite(edb, core.NewAtom("R", core.Var("X"))); err == nil {
		t.Error("EDB query relation must be rejected")
	}
}

// A derived relation may hold facts of the database too: the magic
// answers include them, as full evaluation's do.
func TestMagicImportsDatabaseFacts(t *testing.T) {
	th := parser.MustParseTheory(`
		R(X,Y) -> S(Y,Y).
		S(X,Y), S(Y,Z) -> P(X,Z).
	`)
	d := database.FromAtoms(parser.MustParseFacts("R(a,b). S(c,d). S(d,e)."))
	for _, query := range []core.Atom{
		core.NewAtom("S", core.Var("X"), core.Var("Y")),
		core.NewAtom("S", core.Const("c"), core.Var("Y")),
		core.NewAtom("P", core.Var("X"), core.Var("Y")),
	} {
		magicAns, _, err := AnswerWithMagic(th, query, d)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Eval(th, d)
		if err != nil {
			t.Fatal(err)
		}
		var fullAns [][]core.Term
	facts:
		for _, f := range full.Facts(query.Key()) {
			for i, t := range query.Args {
				if t.IsConst() && f.Args[i] != t {
					continue facts
				}
			}
			fullAns = append(fullAns, f.Args)
		}
		if ok, diff := SameAnswers(magicAns, fullAns); !ok || len(fullAns) == 0 {
			t.Errorf("%s: %s (%d full answers)", query, diff, len(fullAns))
		}
	}
}

// A program that reads ACDom has no goal-directed rewriting: the magic
// fixpoint's active domain is not the full fixpoint's.
func TestMagicRejectsACDom(t *testing.T) {
	th := parser.MustParseTheory(`
		ACDom(X) -> Dom(X).
		A(X) -> W(X, s).
	`)
	if _, err := MagicRewrite(th, core.NewAtom("Dom", core.Var("X"))); err == nil {
		t.Fatal("a program reading ACDom must be rejected")
	}
}

// Randomized: magic answers equal filtered full answers on random graphs.
func TestMagicRandomized(t *testing.T) {
	th := parser.MustParseTheory(`
		E(X,Y) -> T(X,Y).
		E(X,Z), T(Z,Y) -> T(X,Y).
	`)
	for seed := int64(0); seed < 10; seed++ {
		d := database.New()
		n := 6
		for e := 0; e < 9; e++ {
			u := core.Const(fmt.Sprintf("v%d", (int(seed)+e*3)%n))
			v := core.Const(fmt.Sprintf("v%d", (int(seed)*2+e*5)%n))
			d.Add(core.NewAtom("E", u, v))
		}
		query := core.NewAtom("T", core.Const("v0"), core.Var("Y"))
		magicAns, _, err := AnswerWithMagic(th, query, d)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Eval(th, d)
		if err != nil {
			t.Fatal(err)
		}
		var fullAns [][]core.Term
		for _, f := range full.Facts(core.RelKey{Name: "T", Arity: 2}) {
			if f.Args[0] == core.Const("v0") {
				fullAns = append(fullAns, f.Args)
			}
		}
		if ok, diff := SameAnswers(magicAns, fullAns); !ok {
			t.Errorf("seed %d: %s", seed, diff)
		}
	}
}

// The magic adornment of T(X,X) is "ff": nothing is bound, so the
// goal-directed fixpoint holds every T tuple and only the answer filter
// can enforce that both positions agree.
func TestMagicRepeatedVariableFiltersAnswers(t *testing.T) {
	th := parser.MustParseTheory(`
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`)
	d := database.New()
	for _, e := range [][2]string{{"a", "b"}, {"b", "a"}, {"c", "d"}} {
		d.Add(core.NewAtom("E", core.Const(e[0]), core.Const(e[1])))
	}
	ans, _, err := AnswerWithMagic(th, core.NewAtom("T", core.Var("X"), core.Var("X")), d)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]core.Term{{core.Const("a"), core.Const("a")}, {core.Const("b"), core.Const("b")}}
	if ok, diff := SameAnswers(ans, want); !ok {
		t.Errorf("T(X,X) answers %v: %s", ans, diff)
	}
}

func TestMatchesAtom(t *testing.T) {
	a, b := core.Const("a"), core.Const("b")
	x, y := core.Var("X"), core.Var("Y")
	for _, tc := range []struct {
		query core.Atom
		args  []core.Term
		want  bool
	}{
		{core.NewAtom("R", x, y), []core.Term{a, b}, true},
		{core.NewAtom("R", x, x), []core.Term{a, a}, true},
		{core.NewAtom("R", x, x), []core.Term{a, b}, false},
		{core.NewAtom("R", a, y), []core.Term{a, b}, true},
		{core.NewAtom("R", a, y), []core.Term{b, b}, false},
		{core.NewAtom("R", x, a, x), []core.Term{b, a, a}, false},
		{core.NewAtom("R", x, y, x), []core.Term{b, a, b}, true},
	} {
		d := database.New()
		ids := make([]uint32, len(tc.args))
		for i, t := range tc.args {
			ids[i] = d.InternTerm(t)
		}
		if got := matchesAtom(d, tc.query, ids); got != tc.want {
			t.Errorf("matchesAtom(%s, %v) = %v, want %v", tc.query, tc.args, got, tc.want)
		}
	}
}
