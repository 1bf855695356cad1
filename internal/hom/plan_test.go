package hom

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/gen"
	"guardedrules/internal/parser"
)

// compileBody compiles the positive body of a rule into a fresh slot
// space, resolved against db.
func compileBody(t *testing.T, src string, db *database.Database) ([]CAtom, int) {
	t.Helper()
	th := parser.MustParseTheory(src)
	if len(th.Rules) != 1 {
		t.Fatalf("want exactly one rule in %q", src)
	}
	slots := make(map[core.Term]int)
	var atoms []CAtom
	for _, a := range th.Rules[0].PositiveBody() {
		atoms = append(atoms, Compile(a, slots))
	}
	for i := range atoms {
		atoms[i].Resolve(db)
	}
	return atoms, len(slots)
}

// bindings renders the current slot assignment of st as one line.
func bindings(st *State, nvars int) string {
	var sb strings.Builder
	for s := 0; s < nvars; s++ {
		if s > 0 {
			sb.WriteByte(' ')
		}
		if st.Bd[s] {
			fmt.Fprintf(&sb, "%d", st.B[s])
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// The consolidated searcher contract: for any body, the dynamic
// most-constrained Search and the planned SearchPlan must enumerate
// exactly the same set of complete matches. The bodies cover every
// access path: scans, seeks, and checks of fully bound atoms (a
// repeated variable, a constant, an atom whose variables earlier steps
// bound).
func TestSearchPlanMatchesSearch(t *testing.T) {
	bodies := []string{
		`R(X,Y), S(Y,Z) -> A(X).`,
		`R(X,Y), S(Y,X) -> A(X).`,
		`R(X,Y), R(Y,Z), S(X,Z) -> A(X).`,
		`A(X), R(X,Y), B(Y) -> C(X).`,
		`R(X,X) -> A(X).`,
		`A(X), B(Y) -> C(X).`, // cross product
		`R(X,Y), S(Z,W) -> A(X).`,
		`R(X,Y), S(X,Y) -> A(X).`,
		`R(X,Y), S(Y,Y), A(X) -> C(X).`,
		`R(X,c1), S(c1,X) -> A(X).`,
	}
	kinds := make(map[AccessKind]bool)
	for seed := int64(0); seed < 6; seed++ {
		dbs := []*database.Database{
			gen.ABDatabase(10, seed),
			gen.AdversarialNames(14, seed),
		}
		for di, db := range dbs {
			for _, src := range bodies {
				atoms, nvars := compileBody(t, src, db)
				st := NewState(db, nvars)

				var viaSearch []string
				st.ForEach(atoms, func() bool {
					viaSearch = append(viaSearch, bindings(st, nvars))
					return true
				})

				plan := PlanBody(atoms, make([]bool, nvars))
				for _, s := range plan.Steps {
					kinds[s.Kind] = true
				}
				var viaPlan []string
				st2 := NewState(db, nvars)
				st2.SearchPlan(atoms, &plan, func() bool {
					viaPlan = append(viaPlan, bindings(st2, nvars))
					return true
				})

				sort.Strings(viaSearch)
				sorted := append([]string(nil), viaPlan...)
				sort.Strings(sorted)
				if strings.Join(viaSearch, "\n") != strings.Join(sorted, "\n") {
					t.Fatalf("seed %d db %d %q: SearchPlan set differs from Search\nplan: %s\nsearch %d matches, plan %d",
						seed, di, src, plan, len(viaSearch), len(sorted))
				}
			}
		}
	}
	for _, k := range []AccessKind{AccessScan, AccessSeek, AccessCheck} {
		if !kinds[k] {
			t.Errorf("no plan used access path %d", k)
		}
	}
}

// Planning is a pure function of the statistics: two calls over the same
// database yield the same plan, and a pre-bound mask is not mutated.
func TestPlanBodyDeterministic(t *testing.T) {
	db := gen.ABDatabase(12, 3)
	atoms, nvars := compileBody(t, `R(X,Y), S(Y,Z), A(X) -> C(X).`, db)
	bound := make([]bool, nvars)
	p1 := PlanBody(atoms, bound)
	p2 := PlanBody(atoms, bound)
	if p1.String() != p2.String() {
		t.Fatalf("plans differ: %s vs %s", p1, p2)
	}
	for s, b := range bound {
		if b {
			t.Fatalf("PlanBody mutated the caller's bound mask at slot %d", s)
		}
	}
}

// The planner must order a selective atom before a large one: with two
// facts in S and many in R, the plan starts at S and reaches R through
// its then-bound position.
func TestPlanBodyPrefersSelective(t *testing.T) {
	db := database.New()
	for i := 0; i < 100; i++ {
		db.Add(core.NewAtom("R", core.Const(fmt.Sprintf("r%d", i)), core.Const(fmt.Sprintf("r%d", i+1))))
	}
	db.Add(core.NewAtom("S", core.Const("r5"), core.Const("z1")))
	db.Add(core.NewAtom("S", core.Const("r7"), core.Const("z2")))
	atoms, nvars := compileBody(t, `R(X,Y), S(Y,Z) -> A(X).`, db)
	plan := PlanBody(atoms, make([]bool, nvars))
	if plan.Steps[0].Atom != 1 {
		t.Fatalf("plan %s: expected the 2-fact S atom first", plan)
	}
	if s := plan.Steps[1]; s.Kind != AccessSeek {
		t.Fatalf("plan %s: expected R entered by a seek", plan)
	}
}

// A fully bound atom plans as a check: it yields the one fact the
// bindings name, or nothing. A partly bound one plans as a seek and
// enumerates the same matches, in the same order, as Search.
func TestPlanAccessPaths(t *testing.T) {
	db := database.New()
	c := func(i int) core.Term { return core.Const(fmt.Sprintf("c%d", i)) }
	for i := 0; i < 12; i++ {
		db.Add(core.NewAtom("T", c(i%2), c(i%3), c(i)))
	}
	atoms, nvars := compileBody(t, `T(X,Y,Z) -> A(X).`, db)
	bind := func(st *State, slot, i int) {
		id, ok := db.TermID(c(i))
		if !ok {
			t.Fatalf("c%d not interned", i)
		}
		st.Bind(slot, id)
	}
	collect := func(run func(st *State, fn func() bool)) []string {
		st := NewState(db, nvars)
		bind(st, 0, 0) // X = c0
		bind(st, 1, 1) // Y = c1
		var out []string
		run(st, func() bool {
			out = append(out, bindings(st, nvars))
			return true
		})
		return out
	}

	seek := PlanBody(atoms, []bool{true, true, false})
	if len(seek.Steps) != 1 || seek.Steps[0].Kind != AccessSeek {
		t.Fatalf("plan %s: want one seek for T with X, Y bound", seek)
	}
	viaPlan := collect(func(st *State, fn func() bool) { st.SearchPlan(atoms, &seek, fn) })
	viaSearch := collect(func(st *State, fn func() bool) { st.ForEach(atoms, fn) })
	if len(viaPlan) != 2 || strings.Join(viaPlan, "\n") != strings.Join(viaSearch, "\n") {
		t.Fatalf("seek enumerated %q, Search %q; want the same two matches in the same order", viaPlan, viaSearch)
	}

	check := PlanBody(atoms, []bool{true, true, true})
	if len(check.Steps) != 1 || check.Steps[0].Kind != AccessCheck {
		t.Fatalf("plan %s: want one check for T with every position bound", check)
	}
	for z, want := range map[int]int{4: 1, 10: 1, 5: 0, 7: 0} {
		st := NewState(db, nvars)
		bind(st, 0, 0)
		bind(st, 1, 1)
		bind(st, 2, z)
		n := 0
		st.SearchPlan(atoms, &check, func() bool { n++; return true })
		if n != want {
			t.Errorf("check of T(c0,c1,c%d) matched %d facts, want %d", z, n, want)
		}
	}
}

// An unresolved body constant estimates to zero and is planned first, so
// execution dies immediately; SearchPlan must enumerate nothing and
// leave no bindings behind.
func TestPlanDeadBranchFirst(t *testing.T) {
	db := gen.ABDatabase(6, 1)
	atoms, nvars := compileBody(t, `R(X,Y), S(nosuchconst,X) -> A(X).`, db)
	plan := PlanBody(atoms, make([]bool, nvars))
	if plan.Steps[0].Atom != 1 {
		t.Fatalf("plan %s: dead atom must be ordered first", plan)
	}
	st := NewState(db, nvars)
	n := 0
	st.SearchPlan(atoms, &plan, func() bool { n++; return true })
	if n != 0 {
		t.Fatalf("enumerated %d matches through an unresolved constant", n)
	}
	for s := 0; s < nvars; s++ {
		if st.Bd[s] {
			t.Fatalf("slot %d left bound after a dead search", s)
		}
	}
}
