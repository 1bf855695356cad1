package termination

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/gen"
)

// Differential soundness: whenever the analyzer says "terminating", the
// chase must actually reach a fixpoint. The generous budget is a
// watchdog against analyzer bugs hanging the suite, not a tolerance —
// exhausting it fails the test.
var generous = func() *budget.T {
	return &budget.T{Timeout: 30 * time.Second, MaxFacts: 500_000, MaxRounds: 100_000}
}

func corpusTheories() map[string]*core.Theory {
	ths := map[string]*core.Theory{}
	for seed := int64(0); seed < 8; seed++ {
		ths[fmt.Sprintf("fg/%d", seed)] = gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 6, Seed: seed})
		ths[fmt.Sprintf("g/%d", seed)] = gen.RandomGuardedTheory(6, seed)
		ths[fmt.Sprintf("wfg/%d", seed)] = gen.RandomWFGTheory(6, seed)
	}
	ths["ja-not-wa/3"] = gen.JANotWATheory(3)
	ths["swa-not-ja/2"] = gen.SWANotJATheory(2)
	ths["wa-chain/4"] = gen.WAChainTheory(4)
	return ths
}

func corpusDatabases(name string) map[string]*database.Database {
	return map[string]*database.Database{
		"ab":          gen.ABDatabase(20, 7),
		"adversarial": gen.AdversarialNames(20, 7),
	}
}

// Row workers=N runs every chase as N concurrent requests over the shared
// input database; each of them must saturate.
func TestTerminatingVerdictsAreSound(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for name, th := range corpusTheories() {
				th := th
				t.Run(name, func(t *testing.T) {
					rep := Analyze(th)
					if !rep.Class.Terminating() {
						t.Skipf("class %v: nothing to certify", rep.Class)
					}
					if rep.Certificate == nil {
						t.Fatalf("terminating class %v without certificate", rep.Class)
					}
					if err := rep.Certificate.Verify(th); err != nil {
						t.Fatalf("certificate rejected: %v", err)
					}
					variants := []chase.Variant{chase.Restricted}
					if rep.Class == ClassSWA {
						// Only the critical-instance layer covers the
						// fresh-null oblivious chase.
						variants = append(variants, chase.Oblivious)
					}
					for dbName, d := range corpusDatabases(name) {
						for _, v := range variants {
							res := make([]*chase.Result, workers)
							errs := make([]error, workers)
							var wg sync.WaitGroup
							for i := range res {
								wg.Add(1)
								go func(i int) {
									defer wg.Done()
									res[i], errs[i] = chase.Run(th, d, chase.Options{Variant: v, Budget: generous()})
								}(i)
							}
							wg.Wait()
							for i := range res {
								if errs[i] != nil {
									t.Fatalf("db=%s variant=%v: %v", dbName, v, errs[i])
								}
								if !res[i].Saturated {
									t.Fatalf("db=%s variant=%v: analyzer says terminating (class %v) but chase did not saturate (%s)",
										dbName, v, rep.Class, res[i].Reason)
								}
							}
						}
					}
				})
			}
		})
	}
}

// Strict containment: each generator family sits exactly in its class.
func TestHierarchyStrictContainment(t *testing.T) {
	for n := 1; n <= 4; n++ {
		wa := Analyze(gen.WAChainTheory(n))
		if wa.Class != ClassWA {
			t.Errorf("WAChainTheory(%d): class %v, want wa", n, wa.Class)
		}
		ja := Analyze(gen.JANotWATheory(n))
		if ja.Class != ClassJA || ja.WeaklyAcyclic {
			t.Errorf("JANotWATheory(%d): class %v (wa=%v), want ja strictly", n, ja.Class, ja.WeaklyAcyclic)
		}
		swa := Analyze(gen.SWANotJATheory(n))
		if swa.Class != ClassSWA || swa.JointlyAcyclic {
			t.Errorf("SWANotJATheory(%d): class %v (ja=%v), want swa strictly", n, swa.Class, swa.JointlyAcyclic)
		}
	}
}

// Certificates survive a JSON round-trip and still verify — they are
// meant to travel through lint Detail and /v1/theories responses.
func TestCertificateJSONRoundTrip(t *testing.T) {
	for name, th := range map[string]*core.Theory{
		"wa":  gen.WAChainTheory(3),
		"ja":  gen.JANotWATheory(2),
		"swa": gen.SWANotJATheory(1),
	} {
		rep := Analyze(th)
		if rep.Certificate == nil {
			t.Fatalf("%s: no certificate", name)
		}
		blob, err := json.Marshal(rep.Certificate)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var back Certificate
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := back.Verify(th); err != nil {
			t.Errorf("%s: round-tripped certificate rejected: %v", name, err)
		}
	}
}
