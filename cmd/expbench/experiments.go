package main

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

// sigmaP is Σp of Example 1 with the query rule σ4.
const sigmaP = `
Publication(X) -> exists K1,K2. Keywords(X,K1,K2).
Keywords(X,K1,K2) -> hasTopic(X,K1).
hasTopic(X,Z), hasAuthor(X,U), hasAuthor(Y,U),
  hasTopic(Y,Z2), Scientific(Z2), citedIn(Y,X) -> Scientific(Z).
hasAuthor(X,Y), hasTopic(X,Z), Scientific(Z) -> Q(Y).
`

// exampleSeven is the guarded theory of Example 7.
const exampleSeven = `
A(X) -> exists Y. R(X,Y).
R(X,Y) -> S(Y,Y).
S(X,Y) -> exists Z. T(X,Y,Z).
T(X,X,Y) -> B(X).
C(X), R(X,Y), B(Y) -> D(X).
`

// groundAtomsOver restricts a chase result to the named relations.
func groundAtomsOver(db *database.Database, th *core.Theory) *database.Database {
	rels := make(map[string]bool)
	for _, rk := range th.Relations() {
		rels[rk.Name] = true
	}
	return db.Restrict(func(k core.RelKey) bool { return rels[k.Name] })
}

func check(ok bool, what string) string {
	if ok {
		return "ok"
	}
	return "MISMATCH(" + what + ")"
}

// runE1: Theorem 1 on Σp over growing citation graphs: answer preservation
// and translation size.
func runE1(quick bool) error {
	orig := parser.MustParseTheory(sigmaP)
	norm := normalize.Normalize(orig)
	t0 := time.Now()
	rew, stats, err := rewrite.Rewrite(norm, rewrite.Options{Budget: benchBudget})
	if err != nil {
		return err
	}
	trTime := time.Since(t0)
	rep := classify.Classify(rew)
	fmt.Printf("translation: %d input rules -> %d rules (%d selections, %d splits) in %v; nearly guarded: %v\n",
		stats.InputRules, stats.ExpansionRules, stats.Selections, stats.Splits, trTime.Round(time.Millisecond),
		rep.Member[classify.NearlyGuarded])
	sizes := []int{2, 4, 8, 16}
	if quick {
		sizes = []int{2, 4}
	}
	fmt.Printf("%-6s %-8s %-14s %-14s %-10s %s\n", "n", "|D|", "chase(Σ)", "chase(rew(Σ))", "Q answers", "agree")
	for _, n := range sizes {
		d := gen.CitationGraph(n)
		r1, err := chase.Run(orig, d, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 6}, budget.T{MaxFacts: 2_000_000}))
		if err != nil {
			return err
		}
		r2, err := chase.Run(rew, d, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 6}, budget.T{MaxFacts: 2_000_000}))
		if err != nil {
			return err
		}
		a := groundAtomsOver(r1.DB, orig)
		b := groundAtomsOver(r2.DB, orig)
		same, what := database.SameGroundAtoms(a, b)
		ans := datalog.CollectAnswers(r1.DB, "Q")
		fmt.Printf("%-6d %-8d %-14d %-14d %-10d %s\n",
			n, d.Len(), r1.DB.Len(), r2.DB.Len(), len(ans), check(same, what))
		if !same {
			return fmt.Errorf("answer preservation failed at n=%d", n)
		}
	}
	return nil
}

// runE2: Proposition 4 — the safe Datalog periphery passes through and
// transitive closure survives.
func runE2(quick bool) error {
	th := normalize.Normalize(parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y), B(X) -> S(Y).
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
		T(X,Y), B(X) -> Linked(X,Y).
	`))
	rew, stats, err := rewrite.Rewrite(th, rewrite.Options{Budget: benchBudget})
	if err != nil {
		return err
	}
	fmt.Printf("passthrough safe Datalog rules: %d; expansion: %d rules\n",
		stats.Passthrough, stats.ExpansionRules)
	sizes := []int{8, 16, 32}
	if quick {
		sizes = []int{8}
	}
	fmt.Printf("%-6s %-10s %-10s %s\n", "n", "T facts", "Linked", "agree")
	for _, n := range sizes {
		d := gen.Path(n)
		for i := 0; i < n; i += 2 {
			d.Add(core.NewAtom("B", core.Const(fmt.Sprintf("v%d", i))))
			d.Add(core.NewAtom("A", core.Const(fmt.Sprintf("v%d", i))))
		}
		r1, err := chase.Run(th, d, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 4}, budget.T{MaxFacts: 2_000_000}))
		if err != nil {
			return err
		}
		r2, err := chase.Run(rew, d, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 4}, budget.T{MaxFacts: 2_000_000}))
		if err != nil {
			return err
		}
		a := groundAtomsOver(r1.DB, th)
		b := groundAtomsOver(r2.DB, th)
		same, what := database.SameGroundAtoms(a, b)
		tKey := core.RelKey{Name: "T", Arity: 2}
		lKey := core.RelKey{Name: "Linked", Arity: 2}
		fmt.Printf("%-6d %-10d %-10d %s\n",
			n, len(r1.DB.Facts(tKey)), len(r1.DB.Facts(lKey)), check(same, what))
		if !same {
			return fmt.Errorf("mismatch at n=%d", n)
		}
	}
	return nil
}

// runE3: Theorem 2 on weakly frontier-guarded theories.
func runE3(quick bool) error {
	cases := []struct {
		name   string
		theory string
		facts  func(n int) *database.Database
	}{
		{
			"null-join",
			`A(X) -> exists Y. R(Y,X).
			 R(Y,X), B(X) -> S(Y).
			 R(Y,X), S(Y) -> Hit(X).`,
			func(n int) *database.Database {
				d := database.New()
				for i := 0; i < n; i++ {
					c := core.Const(fmt.Sprintf("c%d", i))
					d.Add(core.NewAtom("A", c))
					if i%2 == 0 {
						d.Add(core.NewAtom("B", c))
					}
				}
				return d
			},
		},
		{
			"carry-chain",
			`Start(X) -> exists N. Node(N,X).
			 Node(N,X), Step(X,X2) -> exists M. Node(M,X2).
			 Node(N,X), Final(X) -> Reached(X).`,
			func(n int) *database.Database {
				d := database.New()
				d.Add(core.NewAtom("Start", core.Const("s0")))
				for i := 0; i+1 < n; i++ {
					d.Add(core.NewAtom("Step",
						core.Const(fmt.Sprintf("s%d", i)), core.Const(fmt.Sprintf("s%d", i+1))))
				}
				d.Add(core.NewAtom("Final", core.Const(fmt.Sprintf("s%d", n-1))))
				return d
			},
		},
	}
	sizes := []int{3, 5}
	if quick {
		sizes = []int{3}
	}
	fmt.Printf("%-12s %-6s %-10s %-8s %s\n", "case", "n", "rew rules", "wg", "agree")
	for _, c := range cases {
		th := parser.MustParseTheory(c.theory)
		res, err := annotate.RewriteWFG(th, rewrite.Options{Budget: benchBudget})
		if err != nil {
			return fmt.Errorf("%s: %v", c.name, err)
		}
		wg := classify.Classify(res.Rewritten).Member[classify.WeaklyGuarded]
		for _, n := range sizes {
			d := c.facts(n)
			depth := n + 3
			r1, err := chase.Run(th, d, govern(chase.Options{Variant: chase.Restricted, MaxDepth: depth}, budget.T{MaxFacts: 2_000_000}))
			if err != nil {
				return err
			}
			dRe := res.Reorder.Database(d)
			r2, err := chase.Run(res.Rewritten, dRe, govern(chase.Options{Variant: chase.Restricted, MaxDepth: depth}, budget.T{MaxFacts: 2_000_000}))
			if err != nil {
				return err
			}
			a := groundAtomsOver(r1.DB, th)
			b := groundAtomsOver(res.Reorder.UndoDatabase(r2.DB), th)
			same, what := database.SameGroundAtoms(a, b)
			fmt.Printf("%-12s %-6d %-10d %-8v %s\n",
				c.name, n, len(res.Rewritten.Rules), wg, check(same, what))
			if !same || !wg {
				return fmt.Errorf("%s failed at n=%d", c.name, n)
			}
		}
	}
	return nil
}

// runE4: Theorem 3 — Example 7 plus random guarded theories; saturation
// growth.
func runE4(quick bool) error {
	th := parser.MustParseTheory(exampleSeven)
	t0 := time.Now()
	dat, stats, err := saturate.Datalog(th, saturate.Options{Budget: benchBudget})
	if err != nil {
		return err
	}
	fmt.Printf("Example 7: %d rules -> closure %d -> dat %d in %v\n",
		stats.InputRules, stats.ClosureRules, stats.DatalogRules, time.Since(t0).Round(time.Millisecond))
	d := database.FromAtoms(parser.MustParseFacts(`A(c). C(c).`))
	fix, err := datalog.Eval(dat, d)
	if err != nil {
		return err
	}
	fmt.Printf("D(c) derived (Example 7 regression): %v\n",
		fix.Has(core.NewAtom("D", core.Const("c"))))
	// Growth over random guarded theories of increasing size.
	sizes := []int{4, 8, 12}
	if quick {
		sizes = []int{4}
	}
	fmt.Printf("%-8s %-10s %-10s %-10s %s\n", "rules", "closure", "datalog", "time", "chase-agree")
	for _, n := range sizes {
		g := gen.RandomGuardedTheory(n, int64(n))
		t1 := time.Now()
		dg, st, err := saturate.Datalog(g, saturate.Options{Budget: benchBudget})
		if err != nil {
			return err
		}
		dt := time.Since(t1)
		db := gen.ABDatabase(6, int64(n))
		r, err := chase.Run(g, db, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 8}, budget.T{MaxFacts: 500_000}))
		if err != nil {
			return err
		}
		agree := "skipped(truncated)"
		if r.Saturated {
			fix, err := datalog.Eval(dg, db)
			if err != nil {
				return err
			}
			same, what := database.SameGroundAtoms(groundAtomsOver(r.DB, g), groundAtomsOver(fix, g))
			agree = check(same, what)
			if !same {
				return fmt.Errorf("mismatch at size %d", n)
			}
		}
		fmt.Printf("%-8d %-10d %-10d %-10v %s\n", n, st.ClosureRules, st.DatalogRules, dt.Round(time.Millisecond), agree)
	}
	return nil
}

// runE5: Proposition 6 on a nearly guarded theory with a safe periphery.
func runE5(quick bool) error {
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y) -> B(X).
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
		T(X,Y), B(X), B(Y) -> Linked(X,Y).
	`)
	dat, stats, err := saturate.NearlyGuardedToDatalog(th, saturate.Options{Budget: benchBudget})
	if err != nil {
		return err
	}
	fmt.Printf("dat(Σg) ∪ Σd: %d rules (closure %d)\n", stats.DatalogRules, stats.ClosureRules)
	sizes := []int{8, 16}
	if quick {
		sizes = []int{8}
	}
	fmt.Printf("%-6s %-10s %s\n", "n", "Linked", "agree")
	for _, n := range sizes {
		d := gen.Path(n)
		for i := 0; i < n; i++ {
			d.Add(core.NewAtom("A", core.Const(fmt.Sprintf("v%d", i))))
		}
		fix, err := datalog.Eval(dat, d)
		if err != nil {
			return err
		}
		r, err := chase.Run(th, d, govern(chase.Options{Variant: chase.Restricted}, budget.T{MaxFacts: 2_000_000}))
		if err != nil {
			return err
		}
		same, what := database.SameGroundAtoms(groundAtomsOver(fix, th), groundAtomsOver(r.DB, th))
		lKey := core.RelKey{Name: "Linked", Arity: 2}
		fmt.Printf("%-6d %-10d %s\n", n, len(fix.Facts(lKey)), check(same, what))
		if !same {
			return fmt.Errorf("mismatch at n=%d", n)
		}
	}
	return nil
}

// runE6: Propositions 1 and 2 — normalization and chase-tree properties.
func runE6(quick bool) error {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if quick {
		seeds = seeds[:3]
	}
	fmt.Printf("%-6s %-8s %-8s %-8s %-8s %-6s %s\n",
		"seed", "rules", "normal", "nodes", "depth", "width", "P1-P3")
	for _, seed := range seeds {
		th := gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 5, Seed: seed})
		norm := normalize.Normalize(th)
		if !normalize.IsNormal(norm) {
			return fmt.Errorf("seed %d: normalization failed", seed)
		}
		d := gen.ABDatabase(6, seed)
		tree, res, err := chase.RunTree(norm, d, govern(chase.Options{Variant: chase.Oblivious, MaxDepth: 4}, budget.T{MaxFacts: 100_000}))
		if err != nil {
			return err
		}
		perr := tree.VerifyProposition2(norm, d)
		status := "ok"
		if perr != nil {
			status = perr.Error()
		}
		fmt.Printf("%-6d %-8d %-8d %-8d %-8d %-6d %s\n",
			seed, len(th.Rules), len(norm.Rules), len(tree.Nodes), tree.Depth(), tree.Width(), status)
		if perr != nil {
			return perr
		}
		_ = res
	}
	return nil
}

// runE7: Theorem 4 — compiled machines vs the simulator over all words up
// to a length.
func runE7(quick bool) error {
	alpha := []string{"zero", "one"}
	machines := []*tm.ATM{
		tm.EvenLength(alpha),
		tm.EvenCount("one", alpha),
		tm.SomeSymbol("one", alpha),
		tm.AllSymbols("one", alpha),
	}
	maxLen := 4
	if quick {
		maxLen = 3
	}
	var words func(n int) [][]string
	words = func(n int) [][]string {
		if n == 0 {
			return [][]string{{}}
		}
		var out [][]string
		for _, w := range words(n - 1) {
			out = append(out, append(append([]string(nil), w...), "zero"))
			out = append(out, append(append([]string(nil), w...), "one"))
		}
		return out
	}
	fmt.Printf("%-14s %-8s %-8s %-10s %s\n", "machine", "rules", "wg", "words", "agree")
	for _, m := range machines {
		th, err := capture.Compile(m, 1, alpha)
		if err != nil {
			return err
		}
		wg := classify.Classify(th).Member[classify.WeaklyGuarded]
		tested, agreed := 0, 0
		for n := 1; n <= maxLen; n++ {
			for _, w := range words(n) {
				sim, err := m.Accepts(w, 0)
				if err != nil {
					return err
				}
				db, err := capture.Encode(w, 1, alpha)
				if err != nil {
					return err
				}
				r, err := chase.Run(th, db, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 3*n + 6}, budget.T{MaxFacts: 500_000}))
				if err != nil {
					return err
				}
				tested++
				if r.Entails(core.NewAtom(capture.AcceptRel)) == sim.Accepted {
					agreed++
				}
			}
		}
		fmt.Printf("%-14s %-8d %-8v %-10d %d/%d\n", m.Name, len(th.Rules), wg, tested, agreed, tested)
		if agreed != tested || !wg {
			return fmt.Errorf("machine %s disagreed", m.Name)
		}
	}
	return nil
}

// runE8: Theorem 5 — Σsucc order enumeration and the even-constants
// Boolean query.
func runE8(quick bool) error {
	maxD := 3
	if !quick {
		maxD = 4
	}
	fmt.Printf("%-4s %-12s %-10s\n", "d", "good orders", "expected d!")
	for d := 1; d <= maxD; d++ {
		db := database.New()
		for i := 0; i < d; i++ {
			db.Add(core.NewAtom("Obj", core.Const(fmt.Sprintf("c%d", i))))
		}
		res, err := stratified.Eval(capture.SuccProgram(), db, stratified.Options{
			Chase: govern(chase.Options{Variant: chase.Restricted, MaxDepth: d + 1}, budget.T{MaxFacts: 2_000_000}),
		})
		if err != nil {
			return err
		}
		orders := capture.GoodOrderings(res.DB)
		fact := 1
		for i := 2; i <= d; i++ {
			fact *= i
		}
		fmt.Printf("%-4d %-12d %-10d\n", d, len(orders), fact)
		if len(orders) != fact {
			return fmt.Errorf("d=%d: %d orders, want %d", d, len(orders), fact)
		}
	}
	m := tm.EvenLength(capture.ChrAlphabet(1))
	th, err := capture.BooleanQuery(m, []string{"R"})
	if err != nil {
		return err
	}
	fmt.Printf("even-constants theory: %d rules; stratified wg: %v\n",
		len(th.Rules), stratified.IsWeaklyGuarded(th))
	fmt.Printf("%-4s %-8s %-8s\n", "d", "QBool", "want")
	for d := 1; d <= maxD; d++ {
		db := database.New()
		for i := 0; i < d; i++ {
			db.Add(core.NewAtom("R", core.Const(fmt.Sprintf("c%d", i))))
		}
		got, _, err := capture.EvalBoolean(th, db, d+2)
		if err != nil {
			return err
		}
		want := d%2 == 0
		fmt.Printf("%-4d %-8v %-8v\n", d, got, want)
		if got != want {
			return fmt.Errorf("even-constants failed at d=%d", d)
		}
	}
	return nil
}

// runE9: the '*' inclusions of Figure 1 on sample theories, plus the
// separation: frontier-guarded rules cannot relate unrelated constants
// (so no transitive closure).
func runE9(bool) error {
	samples := []struct {
		name string
		src  string
	}{
		{"sigmaP", sigmaP},
		{"example7", exampleSeven},
		{"transitive", `E(X,Y) -> T(X,Y). T(X,Y), T(Y,Z) -> T(X,Z).`},
		{"weakly-g", `A(X) -> exists Y. R(X,Y). R(X,Y), B(Z) -> P(Y,Z).`},
	}
	fmt.Printf("%-12s %-4s %-4s %-4s %-4s %-4s %-4s %-4s\n",
		"theory", "dlog", "g", "fg", "ng", "nfg", "wg", "wfg")
	for _, s := range samples {
		rep := classify.Classify(parser.MustParseTheory(s.src))
		y := func(f classify.Fragment) string {
			if rep.Member[f] {
				return "yes"
			}
			return "-"
		}
		fmt.Printf("%-12s %-4s %-4s %-4s %-4s %-4s %-4s %-4s\n", s.name,
			y(classify.Datalog), y(classify.Guarded), y(classify.FrontierGuarded),
			y(classify.NearlyGuarded), y(classify.NearlyFrontierGuarded),
			y(classify.WeaklyGuarded), y(classify.WeaklyFrontierGuarded))
		// Syntactic inclusions.
		m := rep.Member
		if m[classify.Guarded] && !(m[classify.FrontierGuarded] && m[classify.NearlyGuarded] && m[classify.WeaklyGuarded]) ||
			m[classify.Datalog] && !(m[classify.NearlyGuarded] && m[classify.WeaklyGuarded]) ||
			m[classify.NearlyGuarded] && !m[classify.NearlyFrontierGuarded] ||
			m[classify.WeaklyGuarded] && !m[classify.WeaklyFrontierGuarded] {
			return fmt.Errorf("inclusion violated for %s", s.name)
		}
	}
	// Separation: a binary-output frontier-guarded theory only relates
	// constants co-occurring in an input atom (Section 3's argument).
	sep := parser.MustParseTheory(`
		E(X,Y) -> exists Z. W(X,Y,Z).
		W(X,Y,Z) -> Pair(X,Y).
	`)
	d := gen.Path(4)
	r, err := chase.Run(sep, d, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 3}, budget.T{}))
	if err != nil {
		return err
	}
	violations := 0
	for _, p := range datalog.CollectAnswers(r.DB, "Pair") {
		if !d.Has(core.NewAtom("E", p[0], p[1])) {
			violations++
		}
	}
	fmt.Printf("fg separation: derived pairs beyond co-occurring constants: %d (must be 0; Datalog's T(v0,v2) is out of reach)\n", violations)
	if violations > 0 {
		return fmt.Errorf("frontier-guarded separation violated")
	}
	return nil
}

// runE10: the Section 7 pipeline vs the direct chase.
func runE10(bool) error {
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(Y,X).
		R(Y,X), B(X) -> S(Y).
	`)
	q := kb.CQ{
		Answer: []core.Term{core.Var("X")},
		Atoms: []core.Atom{
			core.NewAtom("R", core.Var("Y"), core.Var("X")),
			core.NewAtom("S", core.Var("Y")),
		},
	}
	d := database.FromAtoms(parser.MustParseFacts(`A(a). A(b). A(c). B(a). B(c).`))
	chaseAns, _, err := kb.AnswerByChase(th, q, d, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 5}, budget.T{}))
	if err != nil {
		return err
	}
	pipeAns, stats, err := kb.AnswerByPipeline(th, q, d, rewrite.Options{Budget: benchBudget}, saturate.Options{Budget: benchBudget})
	if err != nil {
		return err
	}
	same, what := datalog.SameAnswers(chaseAns, pipeAns)
	fmt.Printf("pipeline sizes: rew=%d rules, pg=%d rules, dat=%d rules\n",
		stats.RewrittenRules, stats.GroundedRules, stats.DatalogRules)
	fmt.Printf("answers: chase=%d pipeline=%d agree=%s\n", len(chaseAns), len(pipeAns), check(same, what))
	if !same {
		return fmt.Errorf("pipeline disagrees with chase")
	}
	return nil
}

// runE11: data-complexity shapes — the Datalog translation evaluates in
// polynomial time in |D| while the weakly guarded capture construction
// grows exponentially with the domain.
func runE11(quick bool) error {
	// PTime side: dat of a guarded theory over growing paths.
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y), B(X) -> S(Y).
		R(X,Y), S(Y) -> Hit(X).
	`)
	ng, _, err := rewrite.Rewrite(normalize.Normalize(th), rewrite.Options{Budget: benchBudget})
	if err != nil {
		return err
	}
	dat, _, err := saturate.NearlyGuardedToDatalog(ng, saturate.Options{Budget: benchBudget})
	if err != nil {
		return err
	}
	sizes := []int{16, 32, 64}
	if quick {
		sizes = []int{16, 32}
	}
	fmt.Printf("PTime side (fixed Datalog translation, growing data):\n")
	fmt.Printf("%-8s %-10s %-12s\n", "n", "facts", "time")
	for _, n := range sizes {
		d := database.New()
		for i := 0; i < n; i++ {
			c := core.Const(fmt.Sprintf("c%d", i))
			d.Add(core.NewAtom("A", c))
			if i%2 == 0 {
				d.Add(core.NewAtom("B", c))
			}
		}
		t0 := time.Now()
		fix, err := datalog.Eval(dat, d)
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %-10d %-12v\n", n, fix.Len(), time.Since(t0).Round(time.Microsecond))
	}
	// EXPTIME side: the ordering forest of Σsucc grows super-polynomially
	// with the domain (d! good orders among d^(d+1) candidates).
	maxD := 4
	if quick {
		maxD = 3
	}
	fmt.Printf("EXPTIME side (Σsucc ordering forest, growing domain):\n")
	fmt.Printf("%-8s %-12s %-12s %-12s\n", "d", "chase facts", "good orders", "time")
	for d := 2; d <= maxD; d++ {
		db := database.New()
		for i := 0; i < d; i++ {
			db.Add(core.NewAtom("Obj", core.Const(fmt.Sprintf("c%d", i))))
		}
		t0 := time.Now()
		res, err := stratified.Eval(capture.SuccProgram(), db, stratified.Options{
			Chase: govern(chase.Options{Variant: chase.Restricted, MaxDepth: d + 1}, budget.T{MaxFacts: 5_000_000}),
		})
		if err != nil {
			return err
		}
		orders := capture.GoodOrderings(res.DB)
		fmt.Printf("%-8d %-12d %-12d %-12v\n", d, res.DB.Len(), len(orders), time.Since(t0).Round(time.Millisecond))
	}
	return nil
}

// runE12: Proposition 5 — the ACDom axiomatization preserves answers.
func runE12(bool) error {
	th := normalize.Normalize(parser.MustParseTheory(sigmaP))
	rew, _, err := rewrite.Rewrite(th, rewrite.Options{Budget: benchBudget})
	if err != nil {
		return err
	}
	star := rewrite.Axiomatize(rew)
	for _, r := range star.Rules {
		for _, a := range r.AllAtoms() {
			if a.Relation == core.ACDom {
				return fmt.Errorf("Σ* still uses ACDom")
			}
		}
	}
	d := gen.CitationGraph(4)
	r1, err := chase.Run(rew, d, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 6}, budget.T{MaxFacts: 2_000_000}))
	if err != nil {
		return err
	}
	r2, err := chase.Run(star, d, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 6}, budget.T{MaxFacts: 2_000_000}))
	if err != nil {
		return err
	}
	q1 := datalog.CollectAnswers(r1.DB, "Q")
	q2 := datalog.CollectAnswers(r2.DB, rewrite.Star("Q"))
	same, what := datalog.SameAnswers(q1, q2)
	fmt.Printf("Σ rules %d -> Σ* rules %d; Q answers %d; Q* answers %d; agree=%s\n",
		len(rew.Rules), len(star.Rules), len(q1), len(q2), check(same, what))
	if !same {
		return fmt.Errorf("axiomatization changed answers")
	}
	return nil
}
