package saturate

import (
	"fmt"
	"math/rand"
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/parser"
)

// exampleSeven is the guarded theory of Example 7.
const exampleSeven = `
A(X) -> exists Y. R(X,Y).
R(X,Y) -> S(Y,Y).
S(X,Y) -> exists Z. T(X,Y,Z).
T(X,X,Y) -> B(X).
C(X), R(X,Y), B(Y) -> D(X).
`

func TestExampleSevenDerivesSigma12(t *testing.T) {
	th := parser.MustParseTheory(exampleSeven)
	dat, stats, err := Datalog(th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ClosureRules < stats.InputRules {
		t.Errorf("closure smaller than input: %+v", stats)
	}
	// σ12 = A(x) ∧ C(x) → D(x) must be in dat(Σ).
	sigma12 := parser.MustParseTheory(`A(X), C(X) -> D(X).`).Rules[0]
	want := core.CanonicalKey(sigma12)
	found := false
	for _, r := range dat.Rules {
		if core.CanonicalKey(r) == want {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("σ12 not derived; dat(Σ) has %d rules", len(dat.Rules))
	}
}

func TestExampleSevenEndToEnd(t *testing.T) {
	th := parser.MustParseTheory(exampleSeven)
	dat, _, err := Datalog(th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := database.FromAtoms(parser.MustParseFacts(`A(c). C(c).`))
	fix, err := datalog.Eval(dat, d)
	if err != nil {
		t.Fatal(err)
	}
	if !fix.Has(core.NewAtom("D", core.Const("c"))) {
		t.Error("dat(Σ), D must entail D(c) (Example 7)")
	}
	// Negative control: without C(c), D(c) must not follow.
	d2 := database.FromAtoms(parser.MustParseFacts(`A(c).`))
	fix2, err := datalog.Eval(dat, d2)
	if err != nil {
		t.Fatal(err)
	}
	if fix2.Has(core.NewAtom("D", core.Const("c"))) {
		t.Error("D(c) must not be entailed without C(c)")
	}
}

func TestDatalogRejectsUnguarded(t *testing.T) {
	th := parser.MustParseTheory(`R(X,Y), R(Y,Z) -> P(X,Z).`)
	if _, _, err := Datalog(th, Options{}); err == nil {
		t.Error("unguarded rule must be rejected")
	}
}

func TestMaxRulesCap(t *testing.T) {
	th := parser.MustParseTheory(exampleSeven)
	if _, _, err := Datalog(th, Options{Budget: &budget.T{MaxRules: 3}}); err == nil {
		t.Error("cap must trigger an error")
	}
}

// agreeOnGroundAtoms checks Theorem 3: Σ,D ⊨ α iff dat(Σ),D ⊨ α for
// ground atoms over Σ's signature.
func agreeOnGroundAtoms(t *testing.T, theory, facts string) {
	t.Helper()
	th := parser.MustParseTheory(theory)
	dat, _, err := Datalog(th, Options{})
	if err != nil {
		t.Fatalf("saturation failed for %q: %v", theory, err)
	}
	d := database.FromAtoms(parser.MustParseFacts(facts))
	ch, err := chase.Run(th, d, chase.Options{Variant: chase.Restricted, MaxDepth: 8, Budget: &budget.T{MaxFacts: 200_000}})
	if err != nil {
		t.Fatal(err)
	}
	fix, err := datalog.Eval(dat, d)
	if err != nil {
		t.Fatal(err)
	}
	rels := make(map[string]bool)
	for _, rk := range th.Relations() {
		rels[rk.Name] = true
	}
	chGround := ch.DB.Restrict(func(k core.RelKey) bool { return rels[k.Name] })
	datGround := fix.Restrict(func(k core.RelKey) bool { return rels[k.Name] })
	// dat(Σ) is Datalog: it derives no nulls, so compare ground atoms.
	if ok, diff := database.SameGroundAtoms(chGround, datGround); !ok {
		t.Errorf("theory %q on %q: %s", theory, facts, diff)
	}
}

func TestTheoremThreeOnExamples(t *testing.T) {
	agreeOnGroundAtoms(t, exampleSeven, `A(c). C(c).`)
	agreeOnGroundAtoms(t, exampleSeven, `A(a). A(b). C(b). R(a,b). B(b).`)
	agreeOnGroundAtoms(t, `
		Person(X) -> exists Y. hasParent(X,Y).
		hasParent(X,Y) -> Person(Y).
		hasParent(X,Y), Person(X) -> Ancestor(X).
	`, `Person(adam). hasParent(eve,adam).`)
	agreeOnGroundAtoms(t, `
		A(X) -> exists Y. R(X,Y).
		R(X,Y) -> exists Z. R(Y,Z).
		R(X,Y) -> B(X).
		B(X), A(X) -> C(X).
	`, `A(a). R(a,b).`)
}

// Random guarded theories: dat(Σ) and the chase must agree on ground
// consequences.
func TestTheoremThreeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		th := randomGuardedTheory(rng)
		d := randomDatabase(rng)
		dat, _, err := Datalog(th, Options{Budget: &budget.T{MaxRules: 100_000}})
		if err != nil {
			t.Fatalf("trial %d: saturation failed: %v\n%v", trial, err, th)
		}
		ch, err := chase.Run(th, d, chase.Options{Variant: chase.Restricted, MaxDepth: 7, Budget: &budget.T{MaxFacts: 100_000}})
		if err != nil {
			t.Fatal(err)
		}
		if ch.Truncated {
			continue // cannot compare against a truncated chase
		}
		fix, err := datalog.Eval(dat, d)
		if err != nil {
			t.Fatal(err)
		}
		rels := make(map[string]bool)
		for _, rk := range th.Relations() {
			rels[rk.Name] = true
		}
		a := ch.DB.Restrict(func(k core.RelKey) bool { return rels[k.Name] })
		b := fix.Restrict(func(k core.RelKey) bool { return rels[k.Name] })
		if ok, diff := database.SameGroundAtoms(a, b); !ok {
			t.Errorf("trial %d: %s\ntheory:\n%v", trial, diff, th)
		}
	}
}

// randomGuardedTheory builds a small guarded theory over unary relations
// A,B,C and binary R,S.
func randomGuardedTheory(rng *rand.Rand) *core.Theory {
	unary := []string{"A", "B", "C"}
	binary := []string{"R", "S"}
	x, y := core.Var("X"), core.Var("Y")
	th := core.NewTheory()
	n := 3 + rng.Intn(4)
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0: // A(x) -> exists y. R(x,y)
			th.Add(core.NewRule(
				[]core.Atom{core.NewAtom(unary[rng.Intn(3)], x)},
				[]core.Term{y},
				core.NewAtom(binary[rng.Intn(2)], x, y)))
		case 1: // R(x,y) -> B(y)
			th.Add(core.NewRule(
				[]core.Atom{core.NewAtom(binary[rng.Intn(2)], x, y)},
				nil,
				core.NewAtom(unary[rng.Intn(3)], y)))
		case 2: // R(x,y), B(y) -> C(x)
			th.Add(core.NewRule(
				[]core.Atom{
					core.NewAtom(binary[rng.Intn(2)], x, y),
					core.NewAtom(unary[rng.Intn(3)], y),
				},
				nil,
				core.NewAtom(unary[rng.Intn(3)], x)))
		case 3: // R(x,y) -> S(y,x)
			th.Add(core.NewRule(
				[]core.Atom{core.NewAtom(binary[rng.Intn(2)], x, y)},
				nil,
				core.NewAtom(binary[rng.Intn(2)], y, x)))
		case 4: // A(x) -> B(x)
			th.Add(core.NewRule(
				[]core.Atom{core.NewAtom(unary[rng.Intn(3)], x)},
				nil,
				core.NewAtom(unary[rng.Intn(3)], x)))
		}
	}
	for i, r := range th.Rules {
		r.Label = fmt.Sprintf("g%d", i)
	}
	return th
}

func randomDatabase(rng *rand.Rand) *database.Database {
	d := database.New()
	consts := []core.Term{core.Const("a"), core.Const("b"), core.Const("c")}
	for i := 0; i < 4; i++ {
		if rng.Intn(2) == 0 {
			d.Add(core.NewAtom([]string{"A", "B", "C"}[rng.Intn(3)], consts[rng.Intn(3)]))
		} else {
			d.Add(core.NewAtom([]string{"R", "S"}[rng.Intn(2)], consts[rng.Intn(3)], consts[rng.Intn(3)]))
		}
	}
	return d
}

func TestNearlyGuardedToDatalog(t *testing.T) {
	// Guarded existential core + safe transitive-closure periphery.
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y) -> B(X).
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
		T(X,Y), B(X), B(Y) -> Linked(X,Y).
	`)
	dat, _, err := NearlyGuardedToDatalog(th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := database.FromAtoms(parser.MustParseFacts(`A(a). A(c). E(a,b). E(b,c).`))
	fix, err := datalog.Eval(dat, d)
	if err != nil {
		t.Fatal(err)
	}
	if !fix.Has(core.NewAtom("Linked", core.Const("a"), core.Const("c"))) {
		t.Error("Linked(a,c) must be derived through the safe TC periphery")
	}
	// Cross-check against the chase.
	ch, err := chase.Run(th, d, chase.Options{Variant: chase.Restricted})
	if err != nil {
		t.Fatal(err)
	}
	rels := make(map[string]bool)
	for _, rk := range th.Relations() {
		rels[rk.Name] = true
	}
	a := ch.DB.Restrict(func(k core.RelKey) bool { return rels[k.Name] })
	b := fix.Restrict(func(k core.RelKey) bool { return rels[k.Name] })
	if ok, diff := database.SameGroundAtoms(a, b); !ok {
		t.Errorf("Proposition 6 violated: %s", diff)
	}
}

func TestNearlyGuardedRejectsUnsafe(t *testing.T) {
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y), R(Z,Y) -> P(X,Z).
	`)
	if _, _, err := NearlyGuardedToDatalog(th, Options{}); err == nil {
		t.Error("rule with unsafe join variable must be rejected")
	}
}

// Richer random guarded theories — ternary relations, side atoms,
// multi-atom heads sharing up to two nulls — against the chase. The
// chase need not terminate, so dat(Σ) must contain a shallow chase's
// ground atoms (completeness) and be contained in a deep one's
// (soundness: merged heads must keep unrelated nulls apart).
func TestTheoremThreeRichRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 1000; trial++ {
		th := randomRichGuardedTheory(rng)
		dat, _, err := Datalog(th, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v\n%v", trial, err, th)
		}
		d := randomRichDatabase(rng)
		fix, err := datalog.Eval(dat, d)
		if err != nil {
			t.Fatal(err)
		}
		keep := func(k core.RelKey) bool { return k.Name != core.ACDom }
		got := fix.Restrict(keep)
		for _, depth := range []int{6, 14} {
			ch, err := chase.Run(th, d, chase.Options{Variant: chase.Restricted, MaxDepth: depth, Budget: &budget.T{MaxFacts: 100_000}})
			if err != nil && !budget.IsBudget(err) {
				t.Fatal(err)
			}
			truncated := err != nil
			want := ch.DB.Restrict(keep)
			if depth == 6 || ch.Saturated {
				for _, a := range want.GroundAtoms() {
					if !got.Has(a) {
						t.Fatalf("trial %d on %v: chase derives %v, dat(Σ) does not\n%v", trial, d, a, th)
					}
				}
			}
			if depth == 14 && !truncated {
				for _, a := range got.GroundAtoms() {
					if !want.Has(a) {
						t.Fatalf("trial %d on %v: dat(Σ) derives %v, the chase does not\n%v", trial, d, a, th)
					}
				}
			}
		}
	}
}

var richRelations = []struct {
	name  string
	arity int
}{{"U1", 1}, {"U2", 1}, {"B1", 2}, {"B2", 2}, {"T1", 3}}

// randomRichGuardedTheory draws 3–7 guarded rules: a binary or ternary
// guard, up to two side atoms over the guard's variables, and one or two
// head atoms over the guard's variables and up to two nulls.
func randomRichGuardedTheory(rng *rand.Rand) *core.Theory {
	vars := []core.Term{core.Var("X"), core.Var("Y"), core.Var("Z")}
	nulls := []core.Term{core.Var("E1"), core.Var("E2")}
	atom := func(terms []core.Term, minArity int) core.Atom {
		r := richRelations[minArity+rng.Intn(len(richRelations)-minArity)]
		args := make([]core.Term, r.arity)
		for j := range args {
			args[j] = terms[rng.Intn(len(terms))]
		}
		return core.NewAtom(r.name, args...)
	}
	th := core.NewTheory()
	for i, n := 0, 3+rng.Intn(5); i < n; i++ {
		body := []core.Atom{atom(vars, 2)}
		gv := core.VarsOf(body).Sorted()
		for k := rng.Intn(3); k > 0; k-- {
			body = append(body, atom(gv, 0))
		}
		terms := gv
		if rng.Intn(2) == 0 {
			terms = append(append([]core.Term(nil), gv...), nulls[:1+rng.Intn(2)]...)
		}
		var head []core.Atom
		for k := 1 + rng.Intn(2); k > 0; k-- {
			head = append(head, atom(terms, 0))
		}
		var exist []core.Term
		for _, e := range nulls {
			if core.VarsOf(head).Has(e) {
				exist = append(exist, e)
			}
		}
		r := core.NewRule(body, exist, head...)
		r.Label = fmt.Sprintf("g%d", i)
		th.Add(r)
	}
	return th
}

func randomRichDatabase(rng *rand.Rand) *database.Database {
	d := database.New()
	for i := 0; i < 6; i++ {
		r := richRelations[rng.Intn(len(richRelations))]
		args := make([]core.Term, r.arity)
		for j := range args {
			args[j] = core.Const(fmt.Sprintf("c%d", rng.Intn(3)))
		}
		d.Add(core.NewAtom(r.name, args...))
	}
	return d
}
