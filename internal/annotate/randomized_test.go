package annotate

import (
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/gen"
	"guardedrules/internal/rewrite"
	"guardedrules/internal/termination"
)

// Theorem 2 randomized: on weakly acyclic random wfg theories, rew(Σ)
// must be weakly guarded and preserve ground atoms (modulo the position
// reordering).
func TestTheoremTwoRandomized(t *testing.T) {
	tested := 0
	for seed := int64(0); seed < 80 && tested < 10; seed++ {
		th := gen.RandomWFGTheory(5, seed)
		rep := classify.Classify(th)
		if !rep.Member[classify.WeaklyFrontierGuarded] || !termination.IsWeaklyAcyclic(th) {
			continue
		}
		res, err := RewriteWFG(th, rewrite.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v\n%v", seed, err, th)
		}
		if !classify.Classify(res.Rewritten).Member[classify.WeaklyGuarded] {
			t.Fatalf("seed %d: rew not weakly guarded", seed)
		}
		tested++
		for dbSeed := int64(0); dbSeed < 2; dbSeed++ {
			d := gen.ABDatabase(5, seed*31+dbSeed)
			r1, err := chase.Run(th, d, chase.Options{Variant: chase.Restricted, Budget: &budget.T{MaxFacts: 300_000, MaxRounds: 5_000}})
			if err != nil {
				t.Fatal(err)
			}
			if !r1.Saturated {
				t.Fatalf("seed %d: original chase did not saturate", seed)
			}
			dRe := res.Reorder.Database(d)
			r2, err := chase.Run(res.Rewritten, dRe, chase.Options{Variant: chase.Restricted, Budget: &budget.T{MaxFacts: 2_000_000, MaxRounds: 20_000}})
			if err != nil {
				t.Fatal(err)
			}
			if !r2.Saturated {
				t.Fatalf("seed %d: rewritten chase did not saturate", seed)
			}
			rels := make(map[string]bool)
			for _, rk := range th.Relations() {
				rels[rk.Name] = true
			}
			a := r1.DB.Restrict(func(k core.RelKey) bool { return rels[k.Name] })
			b := res.Reorder.UndoDatabase(r2.DB).Restrict(func(k core.RelKey) bool { return rels[k.Name] })
			if ok, diff := database.SameGroundAtoms(a, b); !ok {
				t.Errorf("seed %d db %d: %s\ntheory:\n%v", seed, dbSeed, diff, th)
			}
		}
	}
	if tested < 5 {
		t.Fatalf("only %d usable samples; generator too restrictive", tested)
	}
}
