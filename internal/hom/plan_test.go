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
// most-constrained Search, the planned SearchPlan without a join cache,
// and the planned SearchPlan with prepared hash tables must enumerate
// exactly the same set of complete matches — and the two SearchPlan
// variants must agree on the *order*, because switching an access path
// (probe vs seek fallback) preserves insertion-order enumeration.
func TestSearchPlanMatchesSearch(t *testing.T) {
	bodies := []string{
		`R(X,Y), S(Y,Z) -> A(X).`,
		`R(X,Y), S(Y,X) -> A(X).`,
		`R(X,Y), R(Y,Z), S(X,Z) -> A(X).`,
		`A(X), R(X,Y), B(Y) -> C(X).`,
		`R(X,X) -> A(X).`,
		`A(X), B(Y) -> C(X).`, // cross product
		`R(X,Y), S(Z,W) -> A(X).`,
	}
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

				plan := PlanBody(atoms, make([]bool, nvars), db)
				var viaPlanNil []string
				st2 := NewState(db, nvars)
				st2.SearchPlan(atoms, &plan, nil, func() bool {
					viaPlanNil = append(viaPlanNil, bindings(st2, nvars))
					return true
				})

				jc := NewJoinCache(db)
				jc.Prepare(atoms, &plan)
				var viaPlanJC []string
				st3 := NewState(db, nvars)
				st3.SearchPlan(atoms, &plan, jc, func() bool {
					viaPlanJC = append(viaPlanJC, bindings(st3, nvars))
					return true
				})

				// Same order across access paths (probe vs seek fallback).
				if strings.Join(viaPlanNil, "\n") != strings.Join(viaPlanJC, "\n") {
					t.Fatalf("seed %d db %d %q: enumeration order changed with the join cache",
						seed, di, src)
				}
				// Same set as the dynamic searcher.
				sort.Strings(viaSearch)
				sorted := append([]string(nil), viaPlanNil...)
				sort.Strings(sorted)
				if strings.Join(viaSearch, "\n") != strings.Join(sorted, "\n") {
					t.Fatalf("seed %d db %d %q: SearchPlan set differs from Search\nplan: %s\nsearch %d matches, plan %d",
						seed, di, src, plan, len(viaSearch), len(sorted))
				}
			}
		}
	}
}

// Planning is a pure function of the statistics: two calls over the same
// database yield the same plan, and a pre-bound mask is not mutated.
func TestPlanBodyDeterministic(t *testing.T) {
	db := gen.ABDatabase(12, 3)
	atoms, nvars := compileBody(t, `R(X,Y), S(Y,Z), A(X) -> C(X).`, db)
	bound := make([]bool, nvars)
	p1 := PlanBody(atoms, bound, db)
	p2 := PlanBody(atoms, bound, db)
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
	plan := PlanBody(atoms, make([]bool, nvars), db)
	if plan.Steps[0].Atom != 1 {
		t.Fatalf("plan %s: expected the 2-fact S atom first", plan)
	}
	if s := plan.Steps[1]; s.Kind != AccessSeek || s.Pos != 1 {
		t.Fatalf("plan %s: expected R entered by a seek on position 1", plan)
	}
}

// Two probe steps over the same relation and (canonicalized) position
// pair share one hash table, and tables extend incrementally instead of
// rebuilding: Probe refuses to answer from a stale table until the next
// Prepare covers the new facts.
func TestJoinCacheSharingAndIncrementalBuild(t *testing.T) {
	db := database.New()
	for i := 0; i < 8; i++ {
		db.Add(core.NewAtom("R", core.Const(fmt.Sprintf("c%d", i)), core.Const(fmt.Sprintf("c%d", (i+1)%8))))
	}
	// Both atoms are fully bound after the (pretend) pattern: both become
	// probes over R on the canonical pair (0,1).
	atoms, nvars := compileBody(t, `R(X,Y), R(Y,X) -> A(X).`, db)
	bound := make([]bool, nvars)
	for i := range bound {
		bound[i] = true
	}
	plan := PlanBody(atoms, bound, db)
	for i, s := range plan.Steps {
		if s.Kind != AccessProbe {
			t.Fatalf("step %d of %s: want a probe (all positions bound)", i, plan)
		}
		if s.Pos != 0 || s.Pos2 != 1 {
			t.Fatalf("step %d of %s: want the canonical pair (0,1)", i, plan)
		}
	}
	jc := NewJoinCache(db)
	jc.Prepare(atoms, &plan)
	if jc.Builds() != 1 {
		t.Fatalf("built %d tables, want 1 shared table", jc.Builds())
	}
	rk := atoms[0].RK
	id0, _ := db.TermID(core.Const("c0"))
	id1, _ := db.TermID(core.Const("c1"))
	if b, ok := jc.Probe(rk, 0, 1, id0, id1); !ok || len(b) != 1 {
		t.Fatalf("Probe(c0,c1) = %v, %v; want one fact", b, ok)
	}
	// Grow the relation: the stale table must refuse, one Prepare later it
	// answers again, still with a single build.
	db.Add(core.NewAtom("R", core.Const("c0"), core.Const("c5")))
	if _, ok := jc.Probe(rk, 0, 1, id0, id1); ok {
		t.Fatal("Probe answered from a table that does not cover the relation")
	}
	jc.Prepare(atoms, &plan)
	if jc.Builds() != 1 {
		t.Fatalf("incremental extension rebuilt the table: builds = %d", jc.Builds())
	}
	id5, _ := db.TermID(core.Const("c5"))
	if b, ok := jc.Probe(rk, 0, 1, id0, id5); !ok || len(b) != 1 {
		t.Fatalf("Probe(c0,c5) after extension = %v, %v; want the new fact", b, ok)
	}
}

// An unresolved body constant estimates to zero and is planned first, so
// execution dies immediately; SearchPlan must enumerate nothing and
// leave no bindings behind.
func TestPlanDeadBranchFirst(t *testing.T) {
	db := gen.ABDatabase(6, 1)
	atoms, nvars := compileBody(t, `R(X,Y), S(nosuchconst,X) -> A(X).`, db)
	plan := PlanBody(atoms, make([]bool, nvars), db)
	if plan.Steps[0].Atom != 1 {
		t.Fatalf("plan %s: dead atom must be ordered first", plan)
	}
	st := NewState(db, nvars)
	n := 0
	st.SearchPlan(atoms, &plan, nil, func() bool { n++; return true })
	if n != 0 {
		t.Fatalf("enumerated %d matches through an unresolved constant", n)
	}
	for s := 0; s < nvars; s++ {
		if st.Bd[s] {
			t.Fatalf("slot %d left bound after a dead search", s)
		}
	}
}
