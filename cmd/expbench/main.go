// Command expbench regenerates the experiment tables of EXPERIMENTS.md:
// one experiment per arrow of Figure 1 of the paper plus the capture
// results (E1–E12 of DESIGN.md).
//
// Usage:
//
//	expbench             # run all experiments
//	expbench -exp E1,E4  # run a subset
//	expbench -quick      # smaller workloads
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
)

// benchBudget, when non-nil, governs every engine run of every
// experiment: exceeding it fails the experiment with a typed budget
// error instead of letting a blown-up workload run away.
var benchBudget *budget.T

// govern attaches an experiment's own ceilings b to a chase option
// literal, adding -timeout and letting -max-facts override b.MaxFacts.
func govern(o chase.Options, b budget.T) chase.Options {
	if benchBudget != nil {
		b.Timeout = benchBudget.Timeout
		if benchBudget.MaxFacts > 0 {
			b.MaxFacts = benchBudget.MaxFacts
		}
	}
	o.Budget = &b
	return o
}

type experiment struct {
	id    string
	title string
	run   func(quick bool) error
}

func main() {
	expFlag := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	quick := flag.Bool("quick", false, "smaller workloads")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per engine run, e.g. 30s (0 = none)")
	maxFacts := flag.Int("max-facts", 0, "fact ceiling per engine run (0 = none)")
	flag.Parse()
	if *timeout != 0 || *maxFacts != 0 {
		benchBudget = &budget.T{Timeout: *timeout, MaxFacts: *maxFacts}
	}

	all := []experiment{
		{"E1", "Theorem 1: frontier-guarded -> nearly guarded", runE1},
		{"E2", "Proposition 4: nearly frontier-guarded -> nearly guarded", runE2},
		{"E3", "Theorem 2: weakly frontier-guarded -> weakly guarded", runE3},
		{"E4", "Theorem 3: guarded -> Datalog (saturation)", runE4},
		{"E5", "Proposition 6: nearly guarded -> Datalog", runE5},
		{"E6", "Propositions 1-2: normalization and chase trees", runE6},
		{"E7", "Theorem 4: EXPTIME string queries as weakly guarded theories", runE7},
		{"E8", "Theorem 5: stratified weakly guarded capture", runE8},
		{"E9", "Figure 1: syntactic inclusions and separations", runE9},
		{"E10", "Section 7: knowledge-base query pipeline", runE10},
		{"E11", "Data complexity: PTime fragments vs weakly guarded", runE11},
		{"E12", "Proposition 5: ACDom axiomatization", runE12},
		{"A1", "Ablation: native semi-naive vs chase-based Datalog", runA1},
		{"A2", "Ablation: oblivious vs restricted chase", runA2},
		{"A3", "Ablation: weak acyclicity as a termination oracle", runA3},
		{"A4", "Ablation: core minimization of chase results", runA4},
		{"A5", "Ablation: magic sets vs full bottom-up evaluation", runA5},
		{"A8", "Ablation: certified budget-free chase vs bounded fallback", runA8},
	}

	want := map[string]bool{}
	if *expFlag != "" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	failed := 0
	for _, e := range all {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Printf("== %s: %s ==\n", e.id, e.title)
		if err := e.run(*quick); err != nil {
			failed++
			fmt.Printf("%s FAILED: %v\n", e.id, err)
		}
		fmt.Println()
	}
	if failed > 0 {
		os.Exit(1)
	}
}
