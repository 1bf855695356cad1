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
	"guardedrules/internal/gen"
	"guardedrules/internal/normalize"
	"guardedrules/internal/parser"
	"guardedrules/internal/rewrite"
)

// queryRel is the answer relation of the attached query rules.
const queryRel = "QAns"

// attach adds the query rule α ∧ ACDom(~x) → QAns(~x), as kb.Attach does.
func attach(th *core.Theory, answer []core.Term, atoms []core.Atom) *core.Theory {
	out := th.Clone()
	var body []core.Literal
	for _, a := range atoms {
		body = append(body, core.Pos(a))
	}
	for _, v := range answer {
		body = append(body, core.Pos(core.NewAtom(core.ACDom, v)))
	}
	out.Add(&core.Rule{Body: body, Head: []core.Atom{core.NewAtom(queryRel, answer...)}, Label: "cq"})
	return out
}

// randomCQ draws a connected one- or two-atom query over the generators'
// relations (unary A, B, C; binary R, S), answering on all its variables.
func randomCQ(rng *rand.Rand) ([]core.Term, []core.Atom) {
	x, y, z := core.Var("X"), core.Var("Y"), core.Var("Z")
	bin := []string{"R", "S"}
	un := []string{"A", "B", "C"}
	first := core.NewAtom(bin[rng.Intn(2)], x, y)
	switch rng.Intn(3) {
	case 0:
		return []core.Term{x, y}, []core.Atom{first}
	case 1:
		return []core.Term{x, y}, []core.Atom{first, core.NewAtom(un[rng.Intn(3)], y)}
	default:
		return []core.Term{x, z}, []core.Atom{first, core.NewAtom(bin[rng.Intn(2)], y, z)}
	}
}

// checkResume saturates att from scratch and resumed from base, and
// compares the QAns answers of both dat programs with each other and
// with a bounded chase of the source theory on seeded databases.
// mustResume requires the run from base to have resumed.
func checkResume(t *testing.T, name string, base *Closure, att, src *core.Theory, mustResume bool, rng *rand.Rand) {
	t.Helper()
	scratch, _, _, err := Extend(nil, att, Options{})
	if err != nil {
		t.Fatalf("%s: scratch: %v", name, err)
	}
	resumed, _, st, err := Extend(base, att, Options{})
	if err != nil {
		t.Fatalf("%s: resumed: %v", name, err)
	}
	if mustResume && !st.Resumed {
		t.Fatalf("%s: saturated from scratch (%s), want a resumed run", name, st.FreshReason)
	}
	for k := 0; k < 3; k++ {
		d := randomDatabase(rng)
		a := answers(t, scratch, d)
		if b := answers(t, resumed, d); fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("%s on %v: scratch %v, resumed %v", name, d, a, b)
		}
		ch, err := chase.Run(src, d, chase.Options{Variant: chase.Restricted, MaxDepth: 6, Budget: &budget.T{MaxFacts: 50_000}})
		if err != nil && !budget.IsBudget(err) {
			t.Fatal(err)
		}
		c := datalog.CollectAnswers(ch.DB, queryRel)
		if ch.Saturated && fmt.Sprint(a) != fmt.Sprint(c) {
			t.Fatalf("%s on %v: dat %v, chase %v", name, d, a, c)
		}
		if !ch.Saturated && !subset(c, a) {
			t.Fatalf("%s on %v: chase %v ⊄ dat %v", name, d, c, a)
		}
	}
}

func answers(t *testing.T, dat *core.Theory, d *database.Database) [][]core.Term {
	t.Helper()
	fix, err := datalog.Eval(dat, d)
	if err != nil {
		t.Fatal(err)
	}
	return datalog.CollectAnswers(fix, queryRel)
}

func subset(a, b [][]core.Term) bool {
	in := map[string]bool{}
	for _, x := range b {
		in[fmt.Sprint(x)] = true
	}
	for _, x := range a {
		if !in[fmt.Sprint(x)] {
			return false
		}
	}
	return true
}

// Resuming Ξ(Σ) with a query rule must give the same answers as
// saturating Σ∪q from scratch, and as the chase: random guarded theories
// with atomic queries, and the compile_miss frontier-guarded seeds with
// random CQs through rew.
func TestResumeMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		th := randomGuardedTheory(rng)
		_, base, _, err := Extend(nil, th, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rel := []string{"R", "S"}[rng.Intn(2)]
		x, y := core.Var("X"), core.Var("Y")
		att := attach(th, []core.Term{x, y}, []core.Atom{core.NewAtom(rel, x, y)})
		checkResume(t, fmt.Sprintf("guarded trial %d", trial), base, att, att, true, rng)
	}
	for seed := int64(1); seed <= 13; seed++ {
		th := gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 6, Seed: seed})
		ng, _, err := rewrite.Rewrite(normalize.Normalize(th), rewrite.Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, base, _, err := Extend(nil, ng, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The compile_miss query resumes on every seed.
		x, y := core.Var("X"), core.Var("Y")
		queries := [][2]any{{[]core.Term{x, y}, []core.Atom{core.NewAtom("R", x, y)}}}
		for k := 0; k < 3; k++ {
			ans, atoms := randomCQ(rng)
			queries = append(queries, [2]any{ans, atoms})
		}
		for k, q := range queries {
			att := attach(th, q[0].([]core.Term), q[1].([]core.Atom))
			ngq, _, err := rewrite.Rewrite(normalize.Normalize(att), rewrite.Options{})
			if err != nil {
				continue // the query left the frontier-guarded fragment
			}
			checkResume(t, fmt.Sprintf("fg%d query %d", seed, k), base, ngq, att, k == 0, rng)
		}
	}
}

// A theory that drops a rule of the base cannot resume: it saturates
// from scratch, says why, and still answers like the chase.
func TestResumeFallsBackWhenBaseRuleDropped(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	full := parser.MustParseTheory(exampleSeven)
	_, base, _, err := Extend(nil, full, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dropped := core.NewTheory()
	dropped.Add(full.Rules[1:]...)
	x, y := core.Var("X"), core.Var("Y")
	att := attach(dropped, []core.Term{x, y}, []core.Atom{core.NewAtom("R", x, y)})
	_, _, st, err := Extend(base, att, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Resumed || st.FreshReason == "" || st.BaseRules != 0 {
		t.Fatalf("stats %+v: want a from-scratch run with a reason", st)
	}
	checkResume(t, "dropped rule", base, att, att, false, rng)
}
