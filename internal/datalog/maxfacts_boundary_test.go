package datalog

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/database"
	"guardedrules/internal/parser"
)

// These tests pin the per-fact MaxFacts contract of the semi-naive merge
// (the chase analogue lives in chase/budget_boundary_test.go): the
// ceiling caps *derived* facts, it is checked before every single
// insertion — including the ACDom facts a head constant derives — and a
// fact whose cost would push past the ceiling is never added, so the
// partial database never overshoots, not even transiently inside a
// round.

// TestMaxFactsPerFactBoundary sweeps the ceiling across every possible
// value for a chain-closure fixpoint and checks, at each ceiling, that
// the run either completes exactly or stops with the typed error and a
// partial database that (a) never exceeds the ceiling and (b) is a
// subset of the full fixpoint.
func TestMaxFactsPerFactBoundary(t *testing.T) {
	thSrc, factSrc := chainTheoryAndFacts(12)
	th := parser.MustParseTheory(thSrc)
	facts := parser.MustParseFacts(factSrc)
	input := database.FromAtoms(facts).Len()

	full, err := EvalSemiNaiveOpts(th, database.FromAtoms(facts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	derivedFull := full.Len() - input
	want := dump(full)

	for m := 1; m <= derivedFull+1; m++ {
		db, err := EvalSemiNaiveOpts(th, database.FromAtoms(facts),
			Options{Budget: &budget.T{MaxFacts: m}})
		if db == nil {
			t.Fatalf("m=%d: no database returned", m)
		}
		derived := db.Len() - input
		if derived > m {
			t.Fatalf("m=%d: derived %d facts, ceiling exceeded", m, derived)
		}
		if m >= derivedFull {
			if err != nil {
				t.Fatalf("m=%d: fixpoint fits the ceiling, got %v", m, err)
			}
			if dump(db) != want {
				t.Fatalf("m=%d: completed run differs from reference", m)
			}
			continue
		}
		if !errors.Is(err, budget.ErrFactLimit) {
			t.Fatalf("m=%d: err = %v, want ErrFactLimit", m, err)
		}
		// Partial soundness: every derived fact is in the full fixpoint.
		for _, line := range strings.Split(dump(db), "\n") {
			if line == "" {
				continue
			}
			if !strings.Contains(want, line) {
				t.Fatalf("m=%d: partial database holds %s, not in the fixpoint", m, line)
			}
		}
	}
}

// TestMaxFactsACDomAtBoundary drives the boundary with a rule whose head
// introduces a fresh constant: the first application costs two facts —
// the head plus the derived ACDom fact — so a ceiling of 1 must admit
// nothing, a ceiling of 2 exactly the first application, and a ceiling
// equal to the total must complete without error.
func TestMaxFactsACDomAtBoundary(t *testing.T) {
	th := parser.MustParseTheory(`Q(X) -> R(X,d).`)
	facts := parser.MustParseFacts(`Q(a). Q(b).`)
	input := database.FromAtoms(facts).Len() // Q(a), Q(b), ACDom(a), ACDom(b)
	if input != 4 {
		t.Fatalf("input database has %d facts, want 4", input)
	}
	// Derivations, in merge order: R(a,d) [+ACDom(d), cost 2], R(b,d) [cost 1].
	cases := []struct {
		m, derived int
		complete   bool
	}{
		{m: 1, derived: 0},                 // the 2-fact application must stop short
		{m: 2, derived: 2},                 // first application lands exactly at the ceiling
		{m: 3, derived: 3, complete: true}, // everything fits, no error
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("m=%d", c.m), func(t *testing.T) {
			db, err := EvalSemiNaiveOpts(th, database.FromAtoms(facts),
				Options{Budget: &budget.T{MaxFacts: c.m}})
			if c.complete {
				if err != nil {
					t.Fatalf("err = %v, want clean completion at the exact ceiling", err)
				}
			} else if !errors.Is(err, budget.ErrFactLimit) {
				t.Fatalf("err = %v, want ErrFactLimit", err)
			}
			if got := db.Len() - input; got != c.derived {
				t.Fatalf("derived %d facts, want %d", got, c.derived)
			}
			ra := parser.MustParseFacts(`R(a,d).`)[0]
			acd := parser.MustParseFacts(`ACDom(d).`)[0]
			if c.derived >= 2 && (!db.Has(ra) || !db.Has(acd)) {
				t.Fatal("first application admitted but R(a,d)/ACDom(d) missing")
			}
			if c.derived == 0 && db.Has(acd) {
				t.Fatal("ACDom(d) leaked past a ceiling of 1")
			}
		})
	}
}

// TestMaxFactsBoundaryAllWorkerCounts re-runs the exact-boundary case as
// 1, 2, 4 and 8 concurrent requests over one shared input: the admitted
// prefix — and therefore the partial database — is a function of the
// input alone, identical for every request.
func TestMaxFactsBoundaryAllWorkerCounts(t *testing.T) {
	thSrc, factSrc := chainTheoryAndFacts(16)
	p, err := Compile(parser.MustParseTheory(thSrc))
	if err != nil {
		t.Fatal(err)
	}
	d := database.FromAtoms(parser.MustParseFacts(factSrc))
	for _, m := range []int{5, 17, 50} {
		var want string
		for _, workers := range []int{1, 2, 4, 8} {
			db, err := evalConcurrently(t, p, d, Options{Budget: &budget.T{MaxFacts: m}}, workers)
			if !errors.Is(err, budget.ErrFactLimit) {
				t.Fatalf("m=%d workers=%d: err = %v, want ErrFactLimit", m, workers, err)
			}
			got := db.String()
			if workers == 1 {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("m=%d workers=%d: partial database differs from a single request", m, workers)
			}
		}
	}
}
