// Package workload defines each experiment of EXPERIMENTS.md once. An
// entry of Experiments regenerates one of the paper's evaluation
// artifacts (a translation arrow of Figure 1, a worked example, or the
// complexity shape of a translation) and returns what it counted:
// answers, rule and fact counts, and verdicts. cmd/expbench prints the
// tables from those counts, and the root package's BenchmarkExperiment
// times the same run functions.
package workload

import (
	"fmt"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
)

// An Experiment regenerates one table of EXPERIMENTS.md.
type Experiment struct {
	ID, Title string
	// Full and Quick are the sizes a run covers, one table row or group
	// of rows each: a database size, a seed, a domain size or a word
	// length, as the experiment's doc says. Both are empty when the
	// experiment has no size.
	Full, Quick []int
	// Run runs the experiment over sizes. lim, when not nil, governs
	// every engine run: its Timeout applies, and its MaxFacts replaces
	// the run's own fact ceiling. When a check fails, Run returns the
	// report up to the failing row with the error.
	Run func(sizes []int, lim *budget.T) (Report, error)
}

// Experiments are the experiments in EXPERIMENTS.md order: E1–E12 follow
// the paper's results, A1–A8 are design-choice ablations (A6 and A7 are
// retired).
var Experiments = []Experiment{
	{"E1", "Theorem 1: frontier-guarded -> nearly guarded", []int{2, 4, 8, 16}, []int{2, 4}, runE1},
	{"E2", "Proposition 4: nearly frontier-guarded -> nearly guarded", []int{8, 16, 32}, []int{8}, runE2},
	{"E3", "Theorem 2: weakly frontier-guarded -> weakly guarded", []int{3, 5}, []int{3}, runE3},
	{"E4", "Theorem 3: guarded -> Datalog (saturation)", []int{4, 8, 12}, []int{4}, runE4},
	{"E5", "Proposition 6: nearly guarded -> Datalog", []int{8, 16}, []int{8}, runE5},
	{"E6", "Propositions 1-2: normalization and chase trees", []int{1, 2, 3, 4, 5, 6}, []int{1, 2, 3}, runE6},
	{"E7", "Theorem 4: EXPTIME string queries as weakly guarded theories", []int{1, 2, 3, 4}, []int{1, 2, 3}, runE7},
	{"E8", "Theorem 5: stratified weakly guarded capture", []int{1, 2, 3, 4}, []int{1, 2, 3}, runE8},
	{"E9", "Figure 1: syntactic inclusions and separations", nil, nil, runE9},
	{"E10", "Section 7: knowledge-base query pipeline", nil, nil, runE10},
	{"E11", "Data complexity: PTime fragments vs weakly guarded", []int{2, 3, 4}, []int{2, 3}, runE11},
	{"E12", "Proposition 5: ACDom axiomatization", nil, nil, runE12},
	{"A1", "Ablation: native semi-naive vs chase-based Datalog", []int{16, 32, 48}, []int{16, 32}, runA1},
	{"A2", "Ablation: oblivious vs restricted chase", []int{2, 4, 8}, []int{2, 4}, runA2},
	{"A3", "Ablation: weak acyclicity as a termination oracle", []int{30}, []int{12}, runA3},
	{"A4", "Ablation: core minimization of chase results", nil, nil, runA4},
	{"A5", "Ablation: magic sets vs full bottom-up evaluation", []int{16, 32}, []int{16}, runA5},
	{"A8", "Ablation: certified budget-free chase vs bounded fallback", []int{12}, []int{4}, runA8},
}

// SigmaP is Σp of Example 1 with the query rule σ4.
const SigmaP = `
Publication(X) -> exists K1,K2. Keywords(X,K1,K2).
Keywords(X,K1,K2) -> hasTopic(X,K1).
hasTopic(X,Z), hasAuthor(X,U), hasAuthor(Y,U),
  hasTopic(Y,Z2), Scientific(Z2), citedIn(Y,X) -> Scientific(Z).
hasAuthor(X,Y), hasTopic(X,Z), Scientific(Z) -> Q(Y).
`

// ExampleSeven is the guarded theory of Example 7.
const ExampleSeven = `
A(X) -> exists Y. R(X,Y).
R(X,Y) -> S(Y,Y).
S(X,Y) -> exists Z. T(X,Y,Z).
T(X,X,Y) -> B(X).
C(X), R(X,Y), B(Y) -> D(X).
`

// Transitive is the transitive closure of E, the Datalog program of the
// engine workloads.
const Transitive = `
E(X,Y) -> T(X,Y).
T(X,Y), T(Y,Z) -> T(X,Z).
`

// A Report is what a run found, in print order: lines of counts, and
// tables whose cells are counts, verdicts and durations.
type Report []Block

// A Block is one line of a report, or one table when Header is set.
type Block struct {
	Line   string
	Header []string
	Rows   [][]any
}

// Printf adds a line.
func (r *Report) Printf(format string, a ...any) {
	*r = append(*r, Block{Line: fmt.Sprintf(format, a...)})
}

// Table starts a table with the given columns.
func (r *Report) Table(header ...string) { *r = append(*r, Block{Header: header}) }

// Row adds a row to the last table.
func (r *Report) Row(cells ...any) {
	t := &(*r)[len(*r)-1]
	t.Rows = append(t.Rows, cells)
}

// govern attaches a run's own ceilings b to a chase option literal,
// adding lim's Timeout and letting lim's MaxFacts replace b.MaxFacts.
func govern(o chase.Options, lim *budget.T, b budget.T) chase.Options {
	if lim != nil {
		b.Timeout = lim.Timeout
		if lim.MaxFacts > 0 {
			b.MaxFacts = lim.MaxFacts
		}
	}
	o.Budget = &b
	return o
}

// groundAtomsOver restricts a chase result to the relations of th.
func groundAtomsOver(db *database.Database, th *core.Theory) *database.Database {
	rels := make(map[string]bool)
	for _, rk := range th.Relations() {
		rels[rk.Name] = true
	}
	return db.Restrict(func(k core.RelKey) bool { return rels[k.Name] })
}

// check is the verdict cell of a comparison.
func check(ok bool, what string) string {
	if ok {
		return "ok"
	}
	return "MISMATCH(" + what + ")"
}

// consts returns the database with one fact rel(ci) for each i < n,
// and also rel2(ci) for even i when rel2 is set.
func consts(n int, rel, rel2 string) *database.Database {
	d := database.New()
	for i := 0; i < n; i++ {
		c := core.Const(fmt.Sprintf("c%d", i))
		d.Add(core.NewAtom(rel, c))
		if rel2 != "" && i%2 == 0 {
			d.Add(core.NewAtom(rel2, c))
		}
	}
	return d
}
