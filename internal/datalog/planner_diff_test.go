package datalog

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/gen"
	"guardedrules/internal/parser"
)

// Differential suite for the cost-based planner: for every (theory,
// database) cell the semi-naive fixpoint must agree with the chase-based
// reference evaluator on ground atoms. The corpus includes
// gen.AdversarialNames databases, whose constants embed NUL bytes: they
// would collide under sloppy key packing, so they guard the packed-id
// dedup paths (database seen-sets, the per-item keyset) too.
func TestPlannerDifferentialCorpus(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		theories := []struct {
			name string
			th   *core.Theory
		}{
			{"guarded", datalogOnly(gen.RandomGuardedTheory(8, seed))},
			{"fg", datalogOnly(gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 8, Seed: seed}))},
		}
		for _, tc := range theories {
			if len(tc.th.Rules) == 0 {
				continue
			}
			dbs := []struct {
				name string
				d    *database.Database
			}{
				{"ab", gen.ABDatabase(8, seed)},
				{"adversarial", gen.AdversarialNames(12, seed)},
			}
			for _, dc := range dbs {
				ref, err := EvalViaChase(tc.th, dc.d)
				if err != nil {
					t.Fatalf("seed %d %s/%s: chase: %v", seed, tc.name, dc.name, err)
				}
				fix, err := EvalSemiNaiveOpts(tc.th, dc.d, Options{})
				if err != nil {
					t.Fatalf("seed %d %s/%s: %v", seed, tc.name, dc.name, err)
				}
				if ok, diff := database.SameGroundAtoms(fix, ref); !ok {
					t.Fatalf("seed %d %s/%s: disagrees with chase: %s",
						seed, tc.name, dc.name, diff)
				}
			}
		}
	}
}

// TestPlannerFailAtSweep injects a cancellation at every checkpoint of a
// run: each faulted run must return the typed cancellation
// error and a partial database that is a subset of the fixpoint, and
// the first non-faulted run must be byte-identical to the ungoverned
// reference. This walks the planner and plan-runner code paths (prepare,
// SearchPlan leaves) through every shutdown interleaving the
// checkpoint counter can express.
func TestPlannerFailAtSweep(t *testing.T) {
	thSrc, factSrc := chainTheoryAndFacts(32)
	th := parser.MustParseTheory(thSrc)
	facts := parser.MustParseFacts(factSrc)
	t.Run("cost", func(t *testing.T) {
		full, err := EvalSemiNaiveOpts(th, database.FromAtoms(facts), Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := dump(full)
		for n := 1; ; n += 5 {
			if n > 100_000 {
				t.Fatal("fault injection never ran to completion")
			}
			db, err := EvalSemiNaiveOpts(th, database.FromAtoms(facts),
				Options{Budget: budget.FailAt(n)})
			if err == nil {
				if got := dump(db); got != want {
					t.Fatalf("n=%d: completed governed run differs from reference", n)
				}
				break
			}
			if !errors.Is(err, budget.ErrCanceled) {
				t.Fatalf("n=%d: err = %v, want ErrCanceled", n, err)
			}
			if db == nil {
				t.Fatalf("n=%d: canceled eval must return the partial database", n)
			}
			for _, line := range strings.Split(dump(db), "\n") {
				if line != "" && !strings.Contains(want, line) {
					t.Fatalf("n=%d: partial database holds %s, not in the fixpoint", n, line)
				}
			}
		}
	})
}

// TestPlannerStatsCounters checks that a cost-planned run reports
// planner activity through Options.Stats.
func TestPlannerStatsCounters(t *testing.T) {
	th := parser.MustParseTheory(`
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z), E(X,Z) -> Tri(X,Z).
	`)
	var sb strings.Builder
	for i := 0; i < 24; i++ {
		for j := 1; j <= 3; j++ {
			fmt.Fprintf(&sb, "E(c%d,c%d). ", i, (i+j)%24)
		}
	}
	var js JoinStats
	if _, err := EvalSemiNaiveOpts(th, database.FromAtoms(parser.MustParseFacts(sb.String())),
		Options{Stats: &js}); err != nil {
		t.Fatal(err)
	}
	if js.RoundPlans.Load() == 0 {
		t.Error("no round plans recorded")
	}
}
