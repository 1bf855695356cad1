package workload

import (
	"fmt"
	"time"

	"guardedrules/internal/annotate"
	"guardedrules/internal/budget"
	"guardedrules/internal/capture"
	"guardedrules/internal/chase"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/gen"
	"guardedrules/internal/kb"
	"guardedrules/internal/normalize"
	"guardedrules/internal/parser"
	"guardedrules/internal/rewrite"
	"guardedrules/internal/saturate"
	"guardedrules/internal/stratified"
	"guardedrules/internal/tm"
)

// runE1: Theorem 1 on Σp over citation graphs of the given sizes:
// answer preservation and translation size.
func runE1(sizes []int, lim *budget.T) (Report, error) {
	var rep Report
	orig := parser.MustParseTheory(SigmaP)
	t0 := time.Now()
	rew, stats, err := rewrite.Rewrite(normalize.Normalize(orig), rewrite.Options{Budget: lim})
	if err != nil {
		return rep, err
	}
	rep.Printf("translation: %d input rules -> %d rules (%d selections, %d splits) in %v; nearly guarded: %v",
		stats.InputRules, stats.ExpansionRules, stats.Selections, stats.Splits, time.Since(t0).Round(time.Millisecond),
		classify.Classify(rew).Member[classify.NearlyGuarded])
	rep.Table("n", "|D|", "chase(Σ)", "chase(rew(Σ))", "Q answers", "agree")
	for _, n := range sizes {
		d := gen.CitationGraph(n)
		r1, err := chase.Run(orig, d, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 6}, lim, budget.T{MaxFacts: 2_000_000}))
		if err != nil {
			return rep, err
		}
		r2, err := chase.Run(rew, d, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 6}, lim, budget.T{MaxFacts: 2_000_000}))
		if err != nil {
			return rep, err
		}
		same, what := database.SameGroundAtoms(groundAtomsOver(r1.DB, orig), groundAtomsOver(r2.DB, orig))
		rep.Row(n, d.Len(), r1.DB.Len(), r2.DB.Len(), len(datalog.CollectAnswers(r1.DB, "Q")), check(same, what))
		if !same {
			return rep, fmt.Errorf("answer preservation failed at n=%d", n)
		}
	}
	return rep, nil
}

// runE2: Proposition 4 over paths of the given sizes: the safe Datalog
// periphery passes through and transitive closure survives.
func runE2(sizes []int, lim *budget.T) (Report, error) {
	var rep Report
	th := normalize.Normalize(parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y), B(X) -> S(Y).
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
		T(X,Y), B(X) -> Linked(X,Y).
	`))
	rew, stats, err := rewrite.Rewrite(th, rewrite.Options{Budget: lim})
	if err != nil {
		return rep, err
	}
	rep.Printf("passthrough safe Datalog rules: %d; expansion: %d rules", stats.Passthrough, stats.ExpansionRules)
	rep.Table("n", "T facts", "Linked", "agree")
	for _, n := range sizes {
		d := gen.Path(n)
		for i := 0; i < n; i += 2 {
			d.Add(core.NewAtom("B", core.Const(fmt.Sprintf("v%d", i))))
			d.Add(core.NewAtom("A", core.Const(fmt.Sprintf("v%d", i))))
		}
		r1, err := chase.Run(th, d, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 4}, lim, budget.T{MaxFacts: 2_000_000}))
		if err != nil {
			return rep, err
		}
		r2, err := chase.Run(rew, d, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 4}, lim, budget.T{MaxFacts: 2_000_000}))
		if err != nil {
			return rep, err
		}
		same, what := database.SameGroundAtoms(groundAtomsOver(r1.DB, th), groundAtomsOver(r2.DB, th))
		rep.Row(n, len(r1.DB.Facts(core.RelKey{Name: "T", Arity: 2})), len(r1.DB.Facts(core.RelKey{Name: "Linked", Arity: 2})), check(same, what))
		if !same {
			return rep, fmt.Errorf("mismatch at n=%d", n)
		}
	}
	return rep, nil
}

// runE3: Theorem 2 on two weakly frontier-guarded theories, each over
// databases of the given sizes.
func runE3(sizes []int, lim *budget.T) (Report, error) {
	var rep Report
	cases := []struct {
		name, theory string
		db           func(n int) *database.Database
	}{
		{"null-join", `A(X) -> exists Y. R(Y,X).
			R(Y,X), B(X) -> S(Y).
			R(Y,X), S(Y) -> Hit(X).`,
			func(n int) *database.Database { return consts(n, "A", "B") }},
		{"carry-chain", `Start(X) -> exists N. Node(N,X).
			Node(N,X), Step(X,X2) -> exists M. Node(M,X2).
			Node(N,X), Final(X) -> Reached(X).`,
			func(n int) *database.Database {
				d := database.New()
				d.Add(core.NewAtom("Start", core.Const("s0")))
				for i := 0; i+1 < n; i++ {
					d.Add(core.NewAtom("Step", core.Const(fmt.Sprintf("s%d", i)), core.Const(fmt.Sprintf("s%d", i+1))))
				}
				d.Add(core.NewAtom("Final", core.Const(fmt.Sprintf("s%d", n-1))))
				return d
			}},
	}
	rep.Table("case", "n", "rew rules", "wg", "agree")
	for _, c := range cases {
		th := parser.MustParseTheory(c.theory)
		res, err := annotate.RewriteWFG(th, rewrite.Options{Budget: lim})
		if err != nil {
			return rep, fmt.Errorf("%s: %v", c.name, err)
		}
		wg := classify.Classify(res.Rewritten).Member[classify.WeaklyGuarded]
		for _, n := range sizes {
			d := c.db(n)
			opts := govern(chase.Options{Variant: chase.Restricted, MaxDepth: n + 3}, lim, budget.T{MaxFacts: 2_000_000})
			r1, err := chase.Run(th, d, opts)
			if err != nil {
				return rep, err
			}
			r2, err := chase.Run(res.Rewritten, res.Reorder.Database(d), opts)
			if err != nil {
				return rep, err
			}
			same, what := database.SameGroundAtoms(groundAtomsOver(r1.DB, th), groundAtomsOver(res.Reorder.UndoDatabase(r2.DB), th))
			rep.Row(c.name, n, len(res.Rewritten.Rules), wg, check(same, what))
			if !same || !wg {
				return rep, fmt.Errorf("%s failed at n=%d", c.name, n)
			}
		}
	}
	return rep, nil
}

// runE4: Theorem 3 on Example 7, then on random guarded theories of the
// given rule counts: saturation growth, checked against the chase.
func runE4(sizes []int, lim *budget.T) (Report, error) {
	var rep Report
	th := parser.MustParseTheory(ExampleSeven)
	t0 := time.Now()
	dat, stats, err := saturate.Datalog(th, saturate.Options{Budget: lim})
	if err != nil {
		return rep, err
	}
	rep.Printf("Example 7: %d rules -> closure %d -> dat %d in %v",
		stats.InputRules, stats.ClosureRules, stats.DatalogRules, time.Since(t0).Round(time.Millisecond))
	fix, err := datalog.Eval(dat, database.FromAtoms(parser.MustParseFacts(`A(c). C(c).`)))
	if err != nil {
		return rep, err
	}
	rep.Printf("D(c) derived (Example 7 regression): %v", fix.Has(core.NewAtom("D", core.Const("c"))))
	rep.Table("rules", "closure", "datalog", "time", "chase-agree")
	for _, n := range sizes {
		g := gen.RandomGuardedTheory(n, int64(n))
		t1 := time.Now()
		dg, st, err := saturate.Datalog(g, saturate.Options{Budget: lim})
		if err != nil {
			return rep, err
		}
		dt := time.Since(t1).Round(time.Millisecond)
		db := gen.ABDatabase(6, int64(n))
		r, err := chase.Run(g, db, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 8}, lim, budget.T{MaxFacts: 500_000}))
		if err != nil {
			return rep, err
		}
		agree, same := "skipped(truncated)", true
		if r.Saturated {
			fix, err := datalog.Eval(dg, db)
			if err != nil {
				return rep, err
			}
			var what string
			same, what = database.SameGroundAtoms(groundAtomsOver(r.DB, g), groundAtomsOver(fix, g))
			agree = check(same, what)
		}
		rep.Row(n, st.ClosureRules, st.DatalogRules, dt, agree)
		if !same {
			return rep, fmt.Errorf("mismatch at size %d", n)
		}
	}
	return rep, nil
}

// runE5: Proposition 6 on a nearly guarded theory with a safe
// periphery, over paths of the given sizes.
func runE5(sizes []int, lim *budget.T) (Report, error) {
	var rep Report
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y) -> B(X).
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
		T(X,Y), B(X), B(Y) -> Linked(X,Y).
	`)
	dat, stats, err := saturate.NearlyGuardedToDatalog(th, saturate.Options{Budget: lim})
	if err != nil {
		return rep, err
	}
	rep.Printf("dat(Σg) ∪ Σd: %d rules (closure %d)", stats.DatalogRules, stats.ClosureRules)
	rep.Table("n", "Linked", "agree")
	for _, n := range sizes {
		d := gen.Path(n)
		for i := 0; i < n; i++ {
			d.Add(core.NewAtom("A", core.Const(fmt.Sprintf("v%d", i))))
		}
		fix, err := datalog.Eval(dat, d)
		if err != nil {
			return rep, err
		}
		r, err := chase.Run(th, d, govern(chase.Options{Variant: chase.Restricted}, lim, budget.T{MaxFacts: 2_000_000}))
		if err != nil {
			return rep, err
		}
		same, what := database.SameGroundAtoms(groundAtomsOver(fix, th), groundAtomsOver(r.DB, th))
		rep.Row(n, len(fix.Facts(core.RelKey{Name: "Linked", Arity: 2})), check(same, what))
		if !same {
			return rep, fmt.Errorf("mismatch at n=%d", n)
		}
	}
	return rep, nil
}

// runE6: Propositions 1 and 2 on the random frontier-guarded theories of
// the given seeds: normalization and chase-tree properties.
func runE6(seeds []int, lim *budget.T) (Report, error) {
	var rep Report
	rep.Table("seed", "rules", "normal", "nodes", "depth", "width", "P1-P3")
	for _, seed := range seeds {
		th := gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 5, Seed: int64(seed)})
		norm := normalize.Normalize(th)
		if !normalize.IsNormal(norm) {
			return rep, fmt.Errorf("seed %d: normalization failed", seed)
		}
		d := gen.ABDatabase(6, int64(seed))
		tree, _, err := chase.RunTree(norm, d, govern(chase.Options{Variant: chase.Oblivious, MaxDepth: 4}, lim, budget.T{MaxFacts: 100_000}))
		if err != nil {
			return rep, err
		}
		perr := tree.VerifyProposition2(norm, d)
		status := "ok"
		if perr != nil {
			status = perr.Error()
		}
		rep.Row(seed, len(th.Rules), len(norm.Rules), len(tree.Nodes), tree.Depth(), tree.Width(), status)
		if perr != nil {
			return rep, perr
		}
	}
	return rep, nil
}

// runE7: Theorem 4: four compiled machines against the simulator on
// every word of the given lengths.
func runE7(lengths []int, lim *budget.T) (Report, error) {
	var rep Report
	alpha := []string{"zero", "one"}
	machines := []*tm.ATM{
		tm.EvenLength(alpha),
		tm.EvenCount("one", alpha),
		tm.SomeSymbol("one", alpha),
		tm.AllSymbols("one", alpha),
	}
	var words func(n int) [][]string
	words = func(n int) [][]string {
		if n == 0 {
			return [][]string{{}}
		}
		var out [][]string
		for _, w := range words(n - 1) {
			for _, s := range alpha {
				out = append(out, append(append([]string(nil), w...), s))
			}
		}
		return out
	}
	rep.Table("machine", "rules", "wg", "words", "agree")
	for _, m := range machines {
		th, err := capture.Compile(m, 1, alpha)
		if err != nil {
			return rep, err
		}
		wg := classify.Classify(th).Member[classify.WeaklyGuarded]
		tested, agreed := 0, 0
		for _, n := range lengths {
			for _, w := range words(n) {
				sim, err := m.Accepts(w, 0)
				if err != nil {
					return rep, err
				}
				db, err := capture.Encode(w, 1, alpha)
				if err != nil {
					return rep, err
				}
				r, err := chase.Run(th, db, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 3*n + 6}, lim, budget.T{MaxFacts: 500_000}))
				if err != nil {
					return rep, err
				}
				tested++
				if r.Entails(core.NewAtom(capture.AcceptRel)) == sim.Accepted {
					agreed++
				}
			}
		}
		rep.Row(m.Name, len(th.Rules), wg, tested, fmt.Sprintf("%d/%d", agreed, tested))
		if agreed != tested || !wg {
			return rep, fmt.Errorf("machine %s disagreed", m.Name)
		}
	}
	return rep, nil
}

// runE8: Theorem 5 over the given domain sizes d: Σsucc order
// enumeration, then the even-constants Boolean query.
func runE8(domains []int, lim *budget.T) (Report, error) {
	var rep Report
	rep.Table("d", "good orders", "expected d!")
	for _, d := range domains {
		res, err := stratified.Eval(capture.SuccProgram(), consts(d, "Obj", ""), stratified.Options{
			Chase: govern(chase.Options{Variant: chase.Restricted, MaxDepth: d + 1}, lim, budget.T{MaxFacts: 2_000_000}),
		})
		if err != nil {
			return rep, err
		}
		orders := len(capture.GoodOrderings(res.DB))
		fact := 1
		for i := 2; i <= d; i++ {
			fact *= i
		}
		rep.Row(d, orders, fact)
		if orders != fact {
			return rep, fmt.Errorf("d=%d: %d orders, want %d", d, orders, fact)
		}
	}
	th, err := capture.BooleanQuery(tm.EvenLength(capture.ChrAlphabet(1)), []string{"R"})
	if err != nil {
		return rep, err
	}
	rep.Printf("even-constants theory: %d rules; stratified wg: %v", len(th.Rules), stratified.IsWeaklyGuarded(th))
	rep.Table("d", "QBool", "want")
	for _, d := range domains {
		got, _, err := capture.EvalBoolean(th, consts(d, "R", ""), d+2)
		if err != nil {
			return rep, err
		}
		rep.Row(d, got, d%2 == 0)
		if got != (d%2 == 0) {
			return rep, fmt.Errorf("even-constants failed at d=%d", d)
		}
	}
	return rep, nil
}

// runE9: the '*' inclusions of Figure 1 on sample theories, plus the
// separation: frontier-guarded rules cannot relate unrelated constants
// (so no transitive closure).
func runE9(_ []int, lim *budget.T) (Report, error) {
	var rep Report
	samples := []struct{ name, src string }{
		{"sigmaP", SigmaP},
		{"example7", ExampleSeven},
		{"transitive", Transitive},
		{"weakly-g", `A(X) -> exists Y. R(X,Y). R(X,Y), B(Z) -> P(Y,Z).`},
	}
	fragments := []classify.Fragment{classify.Datalog, classify.Guarded, classify.FrontierGuarded,
		classify.NearlyGuarded, classify.NearlyFrontierGuarded, classify.WeaklyGuarded, classify.WeaklyFrontierGuarded}
	rep.Table("theory", "dlog", "g", "fg", "ng", "nfg", "wg", "wfg")
	for _, s := range samples {
		m := classify.Classify(parser.MustParseTheory(s.src)).Member
		row := []any{s.name}
		for _, f := range fragments {
			cell := "-"
			if m[f] {
				cell = "yes"
			}
			row = append(row, cell)
		}
		rep.Row(row...)
		if m[classify.Guarded] && !(m[classify.FrontierGuarded] && m[classify.NearlyGuarded] && m[classify.WeaklyGuarded]) ||
			m[classify.Datalog] && !(m[classify.NearlyGuarded] && m[classify.WeaklyGuarded]) ||
			m[classify.NearlyGuarded] && !m[classify.NearlyFrontierGuarded] ||
			m[classify.WeaklyGuarded] && !m[classify.WeaklyFrontierGuarded] {
			return rep, fmt.Errorf("inclusion violated for %s", s.name)
		}
	}
	// Separation: a binary-output frontier-guarded theory only relates
	// constants co-occurring in an input atom (Section 3's argument).
	sep := parser.MustParseTheory(`
		E(X,Y) -> exists Z. W(X,Y,Z).
		W(X,Y,Z) -> Pair(X,Y).
	`)
	d := gen.Path(4)
	r, err := chase.Run(sep, d, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 3}, lim, budget.T{}))
	if err != nil {
		return rep, err
	}
	violations := 0
	for _, p := range datalog.CollectAnswers(r.DB, "Pair") {
		if !d.Has(core.NewAtom("E", p[0], p[1])) {
			violations++
		}
	}
	rep.Printf("fg separation: derived pairs beyond co-occurring constants: %d (must be 0; Datalog's T(v0,v2) is out of reach)", violations)
	if violations > 0 {
		return rep, fmt.Errorf("frontier-guarded separation violated")
	}
	return rep, nil
}

// runE10: the Section 7 pipeline against the direct chase.
func runE10(_ []int, lim *budget.T) (Report, error) {
	var rep Report
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(Y,X).
		R(Y,X), B(X) -> S(Y).
	`)
	q := kb.CQ{
		Answer: []core.Term{core.Var("X")},
		Atoms:  []core.Atom{core.NewAtom("R", core.Var("Y"), core.Var("X")), core.NewAtom("S", core.Var("Y"))},
	}
	d := database.FromAtoms(parser.MustParseFacts(`A(a). A(b). A(c). B(a). B(c).`))
	chaseAns, _, err := kb.AnswerByChase(th, q, d, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 5}, lim, budget.T{}))
	if err != nil {
		return rep, err
	}
	pipeAns, stats, err := kb.AnswerByPipeline(th, q, d, rewrite.Options{Budget: lim}, saturate.Options{Budget: lim})
	if err != nil {
		return rep, err
	}
	same, what := datalog.SameAnswers(chaseAns, pipeAns)
	rep.Printf("pipeline sizes: rew=%d rules, pg=%d rules, dat=%d rules", stats.RewrittenRules, stats.GroundedRules, stats.DatalogRules)
	rep.Printf("answers: chase=%d pipeline=%d agree=%s", len(chaseAns), len(pipeAns), check(same, what))
	if !same {
		return rep, fmt.Errorf("pipeline disagrees with chase")
	}
	return rep, nil
}

// runE11: data-complexity shapes. For each domain size d, the PTime side
// evaluates a fixed Datalog translation over n = 2^(d+2) constants, and
// the EXPTIME side chases the Σsucc ordering forest over d constants,
// which grows super-polynomially (d! good orders among d^(d+1)
// candidates).
func runE11(domains []int, lim *budget.T) (Report, error) {
	var rep Report
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y), B(X) -> S(Y).
		R(X,Y), S(Y) -> Hit(X).
	`)
	ng, _, err := rewrite.Rewrite(normalize.Normalize(th), rewrite.Options{Budget: lim})
	if err != nil {
		return rep, err
	}
	dat, _, err := saturate.NearlyGuardedToDatalog(ng, saturate.Options{Budget: lim})
	if err != nil {
		return rep, err
	}
	rep.Printf("PTime side (fixed Datalog translation, growing data):")
	rep.Table("n", "facts", "time")
	for _, d := range domains {
		n := 1 << (d + 2)
		t0 := time.Now()
		fix, err := datalog.Eval(dat, consts(n, "A", "B"))
		if err != nil {
			return rep, err
		}
		rep.Row(n, fix.Len(), time.Since(t0).Round(time.Microsecond))
	}
	rep.Printf("EXPTIME side (Σsucc ordering forest, growing domain):")
	rep.Table("d", "chase facts", "good orders", "time")
	for _, d := range domains {
		t0 := time.Now()
		res, err := stratified.Eval(capture.SuccProgram(), consts(d, "Obj", ""), stratified.Options{
			Chase: govern(chase.Options{Variant: chase.Restricted, MaxDepth: d + 1}, lim, budget.T{MaxFacts: 5_000_000}),
		})
		if err != nil {
			return rep, err
		}
		rep.Row(d, res.DB.Len(), len(capture.GoodOrderings(res.DB)), time.Since(t0).Round(time.Millisecond))
	}
	return rep, nil
}

// runE12: Proposition 5: the ACDom axiomatization of rew(Σp) preserves
// answers.
func runE12(_ []int, lim *budget.T) (Report, error) {
	var rep Report
	rew, _, err := rewrite.Rewrite(normalize.Normalize(parser.MustParseTheory(SigmaP)), rewrite.Options{Budget: lim})
	if err != nil {
		return rep, err
	}
	star := rewrite.Axiomatize(rew)
	for _, r := range star.Rules {
		for _, a := range r.AllAtoms() {
			if a.Relation == core.ACDom {
				return rep, fmt.Errorf("Σ* still uses ACDom")
			}
		}
	}
	d := gen.CitationGraph(4)
	r1, err := chase.Run(rew, d, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 6}, lim, budget.T{MaxFacts: 2_000_000}))
	if err != nil {
		return rep, err
	}
	r2, err := chase.Run(star, d, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 6}, lim, budget.T{MaxFacts: 2_000_000}))
	if err != nil {
		return rep, err
	}
	q1 := datalog.CollectAnswers(r1.DB, "Q")
	q2 := datalog.CollectAnswers(r2.DB, rewrite.Star("Q"))
	same, what := datalog.SameAnswers(q1, q2)
	rep.Printf("Σ rules %d -> Σ* rules %d; Q answers %d; Q* answers %d; agree=%s",
		len(rew.Rules), len(star.Rules), len(q1), len(q2), check(same, what))
	if !same {
		return rep, fmt.Errorf("axiomatization changed answers")
	}
	return rep, nil
}
