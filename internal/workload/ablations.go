package workload

import (
	"fmt"
	"time"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/gen"
	"guardedrules/internal/hom"
	"guardedrules/internal/parser"
	"guardedrules/internal/termination"
)

// runA1: the native semi-naive Datalog evaluator against evaluation
// through the generic chase engine (which pays a trigger memo that
// Datalog does not need), on paths of the given sizes.
func runA1(sizes []int, _ *budget.T) (Report, error) {
	var rep Report
	th := parser.MustParseTheory(Transitive)
	rep.Table("n", "semi-naive", "via chase", "speedup")
	for _, n := range sizes {
		d := gen.Path(n)
		t0 := time.Now()
		a, err := datalog.EvalSemiNaive(th, d)
		if err != nil {
			return rep, err
		}
		native := time.Since(t0)
		t1 := time.Now()
		b, err := datalog.EvalViaChase(th, d)
		if err != nil {
			return rep, err
		}
		viaChase := time.Since(t1)
		if ok, diff := database.SameGroundAtoms(a, b); !ok {
			return rep, fmt.Errorf("engines disagree: %s", diff)
		}
		rep.Row(n, native.Round(time.Microsecond), viaChase.Round(time.Microsecond),
			fmt.Sprintf("%.1fx", float64(viaChase)/float64(native)))
	}
	return rep, nil
}

// runA2: the oblivious against the restricted chase over citation graphs
// of the given sizes: the restricted chase skips triggers whose head is
// already satisfied and stays smaller, while both stay homomorphically
// equivalent (same core).
func runA2(sizes []int, lim *budget.T) (Report, error) {
	var rep Report
	th := parser.MustParseTheory(`
		Publication(X) -> exists K1,K2. Keywords(X,K1,K2).
		Keywords(X,K1,K2) -> hasTopic(X,K1).
		hasTopic(X,Z) -> exists W. Keywords(X,Z,W).
	`)
	rep.Table("n", "oblivious", "ob time", "restricted", "re time", "same core", "ground agree")
	for _, n := range sizes {
		d := gen.CitationGraph(n)
		t0 := time.Now()
		ob, err := chase.Run(th, d, govern(chase.Options{Variant: chase.Oblivious, MaxDepth: 3}, lim, budget.T{MaxFacts: 500_000}))
		if err != nil {
			return rep, err
		}
		obTime := time.Since(t0).Round(time.Microsecond)
		t1 := time.Now()
		re, err := chase.Run(th, d, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 3}, lim, budget.T{MaxFacts: 500_000}))
		if err != nil {
			return rep, err
		}
		reTime := time.Since(t1).Round(time.Microsecond)
		same, what := database.SameGroundAtoms(ob.DB, re.DB)
		coreAgree := hom.Equivalent(ob.DB.UserFacts(), re.DB.UserFacts())
		rep.Row(n, ob.DB.Len(), obTime, re.DB.Len(), reTime, coreAgree, check(same, what))
		if !same || !coreAgree {
			return rep, fmt.Errorf("variants disagree at n=%d", n)
		}
		if re.DB.Len() > ob.DB.Len() {
			return rep, fmt.Errorf("restricted chase larger than oblivious at n=%d", n)
		}
	}
	return rep, nil
}

// runA3: weak acyclicity as a chase-termination oracle, cross-checked
// against the chase on the random frontier-guarded theories of seeds
// 0..n-1 for each given n.
func runA3(sizes []int, lim *budget.T) (Report, error) {
	var rep Report
	for _, n := range sizes {
		wa, saturated := 0, 0
		for seed := int64(0); seed < int64(n); seed++ {
			th := gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 5, Seed: seed})
			if !termination.IsWeaklyAcyclic(th) {
				continue
			}
			wa++
			res, err := chase.Run(th, gen.ABDatabase(5, seed), govern(chase.Options{Variant: chase.Restricted}, lim, budget.T{MaxFacts: 200_000, MaxRounds: 5_000}))
			if err != nil {
				return rep, err
			}
			if !res.Saturated {
				return rep, fmt.Errorf("seed %d: weakly acyclic theory did not saturate", seed)
			}
			saturated++
		}
		rep.Printf("theories: %d weakly acyclic, %d not", wa, n-wa)
		rep.Printf("chase saturated on %d/%d weakly acyclic samples (must be all)", saturated, wa)
	}
	// The classic infinite example is flagged.
	a := termination.Analyze(parser.MustParseTheory(`Person(X) -> exists Y. hasParent(X,Y). hasParent(X,Y) -> Person(Y).`))
	kind := "normal"
	if a.Witness.Special {
		kind = "special"
	}
	rep.Printf("ancestor loop flagged non-terminating: %v (witness %v -> %v, %s)", !a.WeaklyAcyclic, a.Witness.From, a.Witness.To, kind)
	if a.WeaklyAcyclic {
		return rep, fmt.Errorf("ancestor loop not flagged")
	}
	return rep, nil
}

// runA4: core minimization of a chase result: the oblivious chase
// carries a redundant null that the core removes, certifying the
// universal model minimal.
func runA4(_ []int, lim *budget.T) (Report, error) {
	var rep Report
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y) -> B(Y).
	`)
	d := database.FromAtoms(parser.MustParseFacts(`A(a). A(b). R(a,c).`))
	ob, err := chase.Run(th, d, govern(chase.Options{Variant: chase.Oblivious}, lim, budget.T{}))
	if err != nil {
		return rep, err
	}
	atoms := ob.DB.UserFacts()
	coreAtoms, exact := hom.Core(atoms)
	rep.Printf("oblivious chase: %d atoms; core: %d atoms (exact=%v)", len(atoms), len(coreAtoms), exact)
	if !hom.Equivalent(atoms, coreAtoms) {
		return rep, fmt.Errorf("core not equivalent to chase")
	}
	if !hom.IsCore(coreAtoms) {
		return rep, fmt.Errorf("result is not a core")
	}
	return rep, nil
}

// runA5: magic sets against full bottom-up evaluation over two Par
// chains of each given length: the rewritten program only explores the
// chain reachable from the query's bound constant.
func runA5(sizes []int, _ *budget.T) (Report, error) {
	var rep Report
	th := parser.MustParseTheory(`
		Par(X,Y) -> Anc(X,Y).
		Par(X,Z), Anc(Z,Y) -> Anc(X,Y).
	`)
	rep.Table("n", "full facts", "magic facts", "full time", "magic time")
	for _, n := range sizes {
		d := database.New()
		for i := 0; i+1 < n; i++ {
			d.Add(core.NewAtom("Par", core.Const(fmt.Sprintf("a%d", i)), core.Const(fmt.Sprintf("a%d", i+1))))
			d.Add(core.NewAtom("Par", core.Const(fmt.Sprintf("z%d", i)), core.Const(fmt.Sprintf("z%d", i+1))))
		}
		t0 := time.Now()
		full, err := datalog.Eval(th, d)
		if err != nil {
			return rep, err
		}
		fullTime := time.Since(t0).Round(time.Microsecond)
		t1 := time.Now()
		ans, fix, err := datalog.AnswerWithMagic(th, core.NewAtom("Anc", core.Const("a0"), core.Var("Y")), d)
		if err != nil {
			return rep, err
		}
		magicTime := time.Since(t1).Round(time.Microsecond)
		if len(ans) != n-1 {
			return rep, fmt.Errorf("n=%d: expected %d answers, got %d", n, n-1, len(ans))
		}
		rep.Row(n, full.Len(), fix.Len(), fullTime, magicTime)
	}
	return rep, nil
}

// runA8: the certified budget-free chase against the bounded fallback,
// on three terminating theories whose databases scale with each given
// n (a citation graph of n papers, and A/B databases of 10n/3 and 5n/2
// constants). The termination analyzer certifies each theory's class
// and, for weakly acyclic ones, prices an exact fact bound for the
// concrete database; chase.RunCertified then runs with no caller
// ceiling at all (the certificate is the ceiling) and must saturate.
// The bounded fallback runs the same chase under the generic defensive
// budget. Both must derive byte-identical fixpoints.
func runA8(sizes []int, lim *budget.T) (Report, error) {
	var rep Report
	rep.Table("workload", "class", "bound", "facts", "certified", "bounded", "ratio")
	for _, n := range sizes {
		cases := []struct {
			name   string
			theory *core.Theory
			db     *database.Database
		}{
			{"publication", parser.MustParseTheory(`
				Publication(X) -> exists K1,K2. Keywords(X,K1,K2).
				Keywords(X,K1,K2) -> hasTopic(X,K1).
			`), gen.CitationGraph(n)},
			{"wa-chain", gen.WAChainTheory(12), gen.ABDatabase(10*n/3, 3)},
			{"ja-not-wa", gen.JANotWATheory(3), gen.ABDatabase(5*n/2, 5)},
		}
		for _, c := range cases {
			a := termination.Analyze(c.theory)
			if !a.Class.Terminating() {
				return rep, fmt.Errorf("%s: expected a terminating class, got %s", c.name, a.Class)
			}
			if err := a.Certificate.Verify(c.theory); err != nil {
				return rep, fmt.Errorf("%s: certificate fails verification: %v", c.name, err)
			}
			bound, boundCell := 0, "-"
			if a.Bound != nil {
				if b, ok := a.Bound.Facts(c.db.InternEpoch()+len(c.theory.Constants()), c.db.Len()); ok {
					bound, boundCell = b, fmt.Sprint(b)
				}
			}
			t0 := time.Now()
			cert, err := chase.RunCertified(c.theory, c.db, bound, chase.Options{Variant: chase.Restricted})
			if err != nil {
				return rep, fmt.Errorf("%s: certified chase: %v", c.name, err)
			}
			certTime := time.Since(t0)
			if !cert.Saturated {
				return rep, fmt.Errorf("%s: certified chase did not saturate", c.name)
			}
			t1 := time.Now()
			bounded, err := chase.Run(c.theory, c.db, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 12}, lim, budget.T{MaxFacts: 500_000}))
			if err != nil {
				return rep, fmt.Errorf("%s: bounded chase: %v", c.name, err)
			}
			boundTime := time.Since(t1)
			if cert.DB.String() != bounded.DB.String() {
				return rep, fmt.Errorf("%s: certified and bounded chases derived different fixpoints", c.name)
			}
			rep.Row(c.name, a.Class, boundCell, cert.DB.Len(), certTime.Round(time.Microsecond),
				boundTime.Round(time.Microsecond), fmt.Sprintf("%.2fx", float64(boundTime)/float64(certTime)))
		}
	}
	return rep, nil
}
