package termination

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/database"
	"guardedrules/internal/gen"
	"guardedrules/internal/parser"
)

func TestSigmaPIsWeaklyAcyclic(t *testing.T) {
	th := parser.MustParseTheory(`
		Publication(X) -> exists K1,K2. Keywords(X,K1,K2).
		Keywords(X,K1,K2) -> hasTopic(X,K1).
		hasTopic(X,Z), hasAuthor(X,U), hasAuthor(Y,U),
		  hasTopic(Y,Z2), Scientific(Z2), citedIn(Y,X) -> Scientific(Z).
		hasAuthor(X,Y), hasTopic(X,Z), Scientific(Z) -> Q(Y).
	`)
	rep := Analyze(th)
	if !rep.WeaklyAcyclic {
		t.Errorf("Σp must be weakly acyclic (witness %v)", rep.Witness)
	}
	if len(rep.Edges) == 0 {
		t.Error("dependency graph must have edges")
	}
}

func TestInfiniteChaseDetected(t *testing.T) {
	th := parser.MustParseTheory(`
		Person(X) -> exists Y. hasParent(X,Y).
		hasParent(X,Y) -> Person(Y).
	`)
	rep := Analyze(th)
	if rep.WeaklyAcyclic {
		t.Error("the ancestor theory must not be weakly acyclic")
	}
	if rep.Witness == nil || !rep.Witness.Special {
		t.Errorf("witness must be a special edge: %v", rep.Witness)
	}
}

func TestDatalogAlwaysWeaklyAcyclic(t *testing.T) {
	th := parser.MustParseTheory(`
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`)
	if !IsWeaklyAcyclic(th) {
		t.Error("Datalog has no special edges, hence weakly acyclic")
	}
}

func TestSelfFeedingExistential(t *testing.T) {
	// R feeds its own existential position directly.
	th := parser.MustParseTheory(`R(X,Y) -> exists Z. R(Y,Z).`)
	if IsWeaklyAcyclic(th) {
		t.Error("self-feeding existential rule must be rejected")
	}
	// Feeding a different relation breaks the cycle.
	th2 := parser.MustParseTheory(`R(X,Y) -> exists Z. S(Y,Z).`)
	if !IsWeaklyAcyclic(th2) {
		t.Error("acyclic invention must be accepted")
	}
}

// Property: on weakly acyclic random theories, the restricted chase
// saturates within the fact budget (termination guarantee); the converse
// (non-WA implies infinite) is not claimed, so only this direction is
// tested.
func TestWeaklyAcyclicChaseTerminates(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tested := 0
	for trial := 0; trial < 40 && tested < 15; trial++ {
		th := gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 5, Seed: rng.Int63()})
		if !IsWeaklyAcyclic(th) {
			continue
		}
		tested++
		d := gen.ABDatabase(5, int64(trial))
		res, err := chase.Run(th, d, chase.Options{Variant: chase.Restricted, Budget: &budget.T{MaxFacts: 200_000, MaxRounds: 5_000}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Saturated {
			t.Errorf("trial %d: weakly acyclic chase did not saturate:\n%v", trial, th)
		}
	}
	if tested == 0 {
		t.Skip("no weakly acyclic samples generated")
	}
}

func TestWitnessOnConcreteCycle(t *testing.T) {
	th := parser.MustParseTheory(`A(X) -> exists Y. R(X,Y). R(X,Y) -> A(Y).`)
	rep := Analyze(th)
	if rep.WeaklyAcyclic {
		t.Fatal("must be cyclic")
	}
	// The special edge (A,1) ⇒ (R,2) lies on the cycle through (A,1).
	w := rep.Witness
	if w.From.Rel.Name != "A" || w.To.Rel.Name != "R" {
		t.Errorf("unexpected witness %v", w)
	}
	// And indeed the chase is infinite: the fact budget trips.
	d := database.FromAtoms(parser.MustParseFacts(`A(a).`))
	res, err := chase.Run(th, d, chase.Options{Variant: chase.Restricted, Budget: &budget.T{MaxFacts: 100}})
	if !errors.Is(err, budget.ErrFactLimit) {
		t.Fatalf("err = %v, want ErrFactLimit", err)
	}
	if res.Saturated {
		t.Error("chase of the cyclic theory must not saturate")
	}
	_ = fmt.Sprint(res.Steps)
}
