package rewrite

import (
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/gen"
	"guardedrules/internal/normalize"
	"guardedrules/internal/termination"
)

// Theorem 1 randomized: on weakly acyclic random frontier-guarded
// theories (whose chases saturate), rew(Σ) must be nearly guarded and
// yield exactly the same ground atoms over Σ's signature.
func TestTheoremOneRandomized(t *testing.T) {
	tested := 0
	for seed := int64(0); seed < 60 && tested < 12; seed++ {
		th := gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 5, Seed: seed})
		if !termination.IsWeaklyAcyclic(th) {
			continue
		}
		norm := normalize.Normalize(th)
		rew, _, err := Rewrite(norm, Options{})
		if err != nil {
			t.Fatalf("seed %d: rewrite failed: %v\n%v", seed, err, th)
		}
		if !classify.Classify(rew).Member[classify.NearlyGuarded] {
			t.Fatalf("seed %d: rew not nearly guarded", seed)
		}
		tested++
		for dbSeed := int64(0); dbSeed < 2; dbSeed++ {
			d := gen.ABDatabase(5, seed*100+dbSeed)
			r1, err := chase.Run(th, d, chase.Options{Variant: chase.Restricted, Budget: &budget.T{MaxFacts: 300_000, MaxRounds: 5_000}})
			if err != nil {
				t.Fatal(err)
			}
			if !r1.Saturated {
				t.Fatalf("seed %d: weakly acyclic chase did not saturate", seed)
			}
			r2, err := chase.Run(rew, d, chase.Options{Variant: chase.Restricted, Budget: &budget.T{MaxFacts: 2_000_000, MaxRounds: 20_000}})
			if err != nil {
				t.Fatal(err)
			}
			if !r2.Saturated {
				t.Fatalf("seed %d: rew chase did not saturate", seed)
			}
			rels := make(map[string]bool)
			for _, rk := range th.Relations() {
				rels[rk.Name] = true
			}
			a := r1.DB.Restrict(func(k core.RelKey) bool { return rels[k.Name] })
			b := r2.DB.Restrict(func(k core.RelKey) bool { return rels[k.Name] })
			if ok, diff := database.SameGroundAtoms(a, b); !ok {
				t.Errorf("seed %d db %d: %s\ntheory:\n%v", seed, dbSeed, diff, th)
			}
		}
	}
	if tested < 5 {
		t.Fatalf("only %d weakly acyclic samples; generator too restrictive", tested)
	}
}
