package rewrite

import (
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/normalize"
	"guardedrules/internal/parser"
	"guardedrules/internal/saturate"
)

const sigmaP = `
Publication(X) -> exists K1,K2. Keywords(X,K1,K2).
Keywords(X,K1,K2) -> hasTopic(X,K1).
hasTopic(X,Z), hasAuthor(X,U), hasAuthor(Y,U),
  hasTopic(Y,Z2), Scientific(Z2), citedIn(Y,X) -> Scientific(Z).
hasAuthor(X,Y), hasTopic(X,Z), Scientific(Z) -> Q(Y).
`

const exampleDB = `
Publication(p1). Publication(p2).
citedIn(p1,p2).
hasAuthor(p1,a1). hasAuthor(p2,a1). hasAuthor(p2,a2).
hasTopic(p1,t1). Scientific(t1).
`

func TestSelectionsEnumeration(t *testing.T) {
	th := parser.MustParseTheory(`R(X,Y), S(Y,Z) -> P(X).`)
	r := th.Rules[0]
	sels := selections(r, 2)
	if len(sels) == 0 {
		t.Fatal("no selections enumerated")
	}
	seen := make(map[string]bool)
	for _, sel := range sels {
		// Idempotency and range bound.
		ran := make(core.TermSet)
		for v, w := range sel.m {
			ran.Add(w)
			if m, ok := sel.m[w]; !ok || m != w {
				t.Fatalf("selection not idempotent: %v -> %v", v, w)
			}
		}
		if len(ran) > 2 {
			t.Fatalf("range exceeds k: %v", sel.m)
		}
		key := ""
		for _, v := range sel.dom().Sorted() {
			key += v.Name + ">" + sel.m[v].Name + ";"
		}
		if seen[key] {
			t.Fatalf("duplicate selection %s", key)
		}
		seen[key] = true
	}
}

func TestCoveredAndKeep(t *testing.T) {
	// Example 3 of the paper: σ = R(x0,x1),R(x1,x2),R(x2,x3),R(x3,x4),
	// R(x4,x1) → P(x1), µ = {x4→x2, x2→x2, x3→x3}.
	th := parser.MustParseTheory(`R(X0,X1), R(X1,X2), R(X2,X3), R(X3,X4), R(X4,X1) -> P(X1).`)
	r := th.Rules[0]
	sel := selection{m: core.Subst{
		core.Var("X4"): core.Var("X2"),
		core.Var("X2"): core.Var("X2"),
		core.Var("X3"): core.Var("X3"),
	}}
	cov := covered(r, sel)
	if len(cov) != 2 {
		t.Fatalf("cov: %v (want R(X2,X3), R(X3,X4))", cov)
	}
	keep := keepVars(r, sel, cov, "rc")
	if len(keep) != 1 || !keep.Has(core.Var("X2")) {
		t.Errorf("keep: %v (want {X2})", keep)
	}
}

func TestExampleFourKeep(t *testing.T) {
	// Example 4: σ4 with µ = {x→x, z→z}: cov = {hasTopic(x,z),
	// Scientific(z)}, keep = {x}.
	th := parser.MustParseTheory(`hasAuthor(X,Y), hasTopic(X,Z), Scientific(Z) -> Q(Y).`)
	r := th.Rules[0]
	sel := selection{m: core.Subst{core.Var("X"): core.Var("X"), core.Var("Z"): core.Var("Z")}}
	cov := covered(r, sel)
	if len(cov) != 2 {
		t.Fatalf("cov: %v", cov)
	}
	keep := keepVars(r, sel, cov, "rc")
	if len(keep) != 1 || !keep.Has(core.Var("X")) {
		t.Errorf("keep: %v (want {X})", keep)
	}
}

func TestRewriteIsNearlyGuarded(t *testing.T) {
	th := normalize.Normalize(parser.MustParseTheory(sigmaP))
	rew, stats, err := Rewrite(th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ExpansionRules <= stats.InputRules {
		t.Errorf("expansion did not grow: %+v", stats)
	}
	rep := classify.Classify(rew)
	if !rep.Member[classify.NearlyGuarded] {
		t.Errorf("Proposition 3 violated: rew(Σ) not nearly guarded (offender %v)", rep.Offender[classify.NearlyGuarded])
	}
}

// Theorem 1 on the running example: the rewriting must preserve Q answers.
func TestTheoremOneRunningExample(t *testing.T) {
	th := normalize.Normalize(parser.MustParseTheory(sigmaP))
	rew, _, err := Rewrite(th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := database.FromAtoms(parser.MustParseFacts(exampleDB))
	res, err := chase.Run(rew, d, chase.Options{Variant: chase.Restricted, MaxDepth: 6, Budget: &budget.T{MaxFacts: 500_000}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"a1", "a2"} {
		if !res.Entails(core.NewAtom("Q", core.Const(c))) {
			t.Errorf("rew(Σ) must entail Q(%s)", c)
		}
	}
	if res.Entails(core.NewAtom("Q", core.Const("p1"))) {
		t.Error("rew(Σ) must not entail Q(p1)")
	}
}

// The full Figure 1 path: frontier-guarded → nearly guarded → Datalog.
// Saturating the full rew(Σp) is double-exponential territory (Section 6
// discusses the unavoidable blow-up), so the end-to-end Datalog path is
// exercised on a compact frontier-guarded theory; rew(Σp) itself is
// validated against the chase in TestTheoremOneRunningExample.
func TestFrontierGuardedToDatalogPipeline(t *testing.T) {
	th := normalize.Normalize(parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y), B(X) -> S(Y).
		R(X,Y), S(Y) -> Q(X).
	`))
	rew, _, err := Rewrite(th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dat, _, err := saturate.NearlyGuardedToDatalog(rew, saturate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := database.FromAtoms(parser.MustParseFacts(`A(a). A(b). B(a).`))
	ans, err := datalog.Answers(dat, "Q", d)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]core.Term{{core.Const("a")}}
	if ok, diff := datalog.SameAnswers(ans, want); !ok {
		t.Errorf("pipeline answers wrong: %s (got %v)", diff, ans)
	}
}

// agree checks Theorem 1 on a theory/database pair by comparing the ground
// atoms over the original signature.
func agree(t *testing.T, theory, facts string) {
	t.Helper()
	orig := parser.MustParseTheory(theory)
	th := normalize.Normalize(orig)
	rew, _, err := Rewrite(th, Options{})
	if err != nil {
		t.Fatalf("rewrite failed for %q: %v", theory, err)
	}
	d := database.FromAtoms(parser.MustParseFacts(facts))
	rels := make(map[string]bool)
	for _, rk := range orig.Relations() {
		rels[rk.Name] = true
	}
	chOrig, err := chase.Run(orig, d, chase.Options{Variant: chase.Restricted, MaxDepth: 6, Budget: &budget.T{MaxFacts: 500_000}})
	if err != nil {
		t.Fatal(err)
	}
	chRew, err := chase.Run(rew, d, chase.Options{Variant: chase.Restricted, MaxDepth: 6, Budget: &budget.T{MaxFacts: 500_000}})
	if err != nil {
		t.Fatal(err)
	}
	a := chOrig.DB.Restrict(func(k core.RelKey) bool { return rels[k.Name] })
	b := chRew.DB.Restrict(func(k core.RelKey) bool { return rels[k.Name] })
	if ok, diff := database.SameGroundAtoms(a, b); !ok {
		t.Errorf("theory %q on %q: %s", theory, facts, diff)
	}
}

func TestTheoremOneMore(t *testing.T) {
	// A frontier-guarded cycle rule (in the spirit of Example 3).
	agree(t, `
		A(X) -> exists Y. R(X,Y).
		R(X0,X1), R(X1,X2), R(X2,X0) -> P(X0).
	`, `A(a). R(a,b). R(b,c). R(c,a).`)
	// Non-guarded join through nulls.
	agree(t, `
		A(X) -> exists Y. R(X,Y).
		R(X,Y), B(X) -> S(Y).
		R(X,Y), S(Y) -> Hit(X).
	`, `A(a). A(b). B(a). B(b).`)
	// Frontier variable reachable only through a null chain.
	agree(t, `
		Start(X) -> exists Y. E(X,Y).
		E(X,Y), Mark(X) -> Mark2(Y).
		E(X,Y), Mark2(Y) -> Good(X).
	`, `Start(s). Mark(s).`)
}

func TestRewriteRejectsNonNearlyFG(t *testing.T) {
	// Unsafe non-frontier-guarded rule: not nearly frontier-guarded.
	th := normalize.Normalize(parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y), R(Z,Y), B(X), B(Z) -> P(X,Z).
	`))
	if _, _, err := Rewrite(th, Options{}); err == nil {
		t.Error("non-(nearly-)frontier-guarded theory must be rejected")
	}
}

func TestDefinitionFourteenPassthrough(t *testing.T) {
	// Transitive closure is safe Datalog and must pass through untouched,
	// while the guarded existential part is rewritten.
	th := normalize.Normalize(parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`))
	rew, stats, err := Rewrite(th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Passthrough != 1 {
		t.Errorf("expected 1 passthrough rule (transitivity), got %d", stats.Passthrough)
	}
	d := database.FromAtoms(parser.MustParseFacts(`E(a,b). E(b,c).`))
	res, err := chase.Run(rew, d, chase.Options{Variant: chase.Restricted, MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Entails(core.NewAtom("T", core.Const("a"), core.Const("c"))) {
		t.Error("transitive closure must survive the rewriting")
	}
}

func TestAxiomatizeACDom(t *testing.T) {
	th := normalize.Normalize(parser.MustParseTheory(sigmaP))
	rew, _, err := Rewrite(th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	star := Axiomatize(rew)
	// Σ* must not use the built-in ACDom.
	for _, r := range star.Rules {
		for _, a := range r.AllAtoms() {
			if a.Relation == core.ACDom {
				t.Fatalf("Σ* still uses %s: %v", core.ACDom, r)
			}
		}
	}
	// Same answers: Q* over Σ* equals Q over Σ.
	d := database.FromAtoms(parser.MustParseFacts(exampleDB))
	r1, err := chase.Run(rew, d, chase.Options{Variant: chase.Restricted, MaxDepth: 6, Budget: &budget.T{MaxFacts: 500_000}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := chase.Run(star, d, chase.Options{Variant: chase.Restricted, MaxDepth: 6, Budget: &budget.T{MaxFacts: 500_000}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"a1", "a2"} {
		want := r1.Entails(core.NewAtom("Q", core.Const(c)))
		got := r2.Entails(core.NewAtom(Star("Q"), core.Const(c)))
		if want != got {
			t.Errorf("Q*(%s): got %v want %v", c, got, want)
		}
	}
}

// The rewriting shapes of the paper's Examples 3 and 5: rc produces a
// guarded σ′ and a rule with strictly fewer variables outside the frontier
// guard; rnc produces a frontier-guarded σ′ and a guarded σ′′.
func TestExampleThreeSplitShapes(t *testing.T) {
	th := parser.MustParseTheory(`R(X0,X1), R(X1,X2), R(X2,X3), R(X3,X4), R(X4,X1) -> P(X1).`)
	r := th.Rules[0]
	sel := selection{m: core.Subst{
		core.Var("X4"): core.Var("X2"),
		core.Var("X2"): core.Var("X2"),
		core.Var("X3"): core.Var("X3"),
	}}
	sp, ok, err := buildSplit(r, sel, "rc")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Example 3's rc split must be admissible")
	}
	// removed = µ(cov) = {R(X2,X3), R(X3,X2)}; kept has the remaining
	// atoms with X4 renamed to X2; the head keeps P(X1).
	if len(sp.removed) != 2 {
		t.Errorf("removed: %v", sp.removed)
	}
	if len(sp.hAtom.Args) != 1 || sp.hAtom.Args[0] != core.Var("X2") {
		t.Errorf("H args: %v (want {X2})", sp.hAtom.Args)
	}
	if sp.head.Relation != "P" {
		t.Errorf("head: %v", sp.head)
	}
	// The σ′′-style remainder has fewer variables than σ (X3, X4 vanish).
	keptVars := core.VarsOf(sp.kept)
	keptVars.AddAll(core.NewTermSet(sp.hAtom.Args...))
	if len(keptVars) >= len(r.UVars()) {
		t.Errorf("no variable projection: %v vs %v", keptVars, r.UVars())
	}
}

func TestExampleFiveSplitShapes(t *testing.T) {
	th := parser.MustParseTheory(`R(X1,X2), R(X2,X3), R(X3,X4), R(X4,X1), R(X4,X5) -> P(X1,X2).`)
	r := th.Rules[0]
	sel := selection{m: core.Subst{
		core.Var("X1"): core.Var("X1"),
		core.Var("X2"): core.Var("X2"),
		core.Var("X3"): core.Var("X3"),
	}}
	cov := covered(r, sel)
	if len(cov) != 2 { // R(X1,X2), R(X2,X3)
		t.Fatalf("cov: %v", cov)
	}
	keep := keepVars(r, sel, cov, "rnc")
	// Example 5: keep = {x1, x3} (x2 occurs in the head but not in
	// body\cov, so it is re-bound through µ(cov) in σ′′).
	if len(keep) != 2 || !keep.Has(core.Var("X1")) || !keep.Has(core.Var("X3")) {
		t.Errorf("keep: %v (want {X1,X3})", keep)
	}
	sp, ok, err := buildSplit(r, sel, "rnc")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Example 5's rnc split must be admissible")
	}
	// removed = µ(body\cov): three atoms over X3,X4,X1,X5.
	if len(sp.removed) != 3 {
		t.Errorf("removed: %v", sp.removed)
	}
	if len(sp.kept) != 2 {
		t.Errorf("kept: %v", sp.kept)
	}
}

// The measure (variables outside the best frontier guard) strictly
// decreases along enqueue-eligible rewritings — the paper's termination
// argument for the expansion.
func TestMeasureDecreasesOnEnqueuedRules(t *testing.T) {
	th := normalize.Normalize(parser.MustParseTheory(sigmaP))
	_, stats, err := Rewrite(th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Splits == 0 {
		t.Fatal("expected splits")
	}
	// Termination itself is the assertion: Rewrite returned. Sanity-check
	// the measure function: on Example 3's rewritten shape the frontier
	// guard R(X0,X1) leaves only X2 outside, and a guarded rule has
	// measure 0.
	r := parser.MustParseTheory(`R(X0,X1), R(X1,X2), R(X2,X1), A(X2) -> P(X1).`).Rules[0]
	if m := measure(r); m != 1 {
		t.Errorf("measure: got %d want 1", m)
	}
	guarded := parser.MustParseTheory(`R(X0,X1) -> P(X1).`).Rules[0]
	if m := measure(guarded); m != 0 {
		t.Errorf("guarded rule must have measure 0, got %d", m)
	}
}

// canonSplit: isomorphic splits share keys and receive corresponding H
// argument orders; different kinds and structures get distinct keys.
func TestCanonSplitIsomorphismInvariance(t *testing.T) {
	build := func(src string, m core.Subst, kind string) (string, split) {
		r := parser.MustParseTheory(src).Rules[0]
		sp, ok, err := buildSplit(r, selection{m: m}, kind)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("split not admissible for %q (%s)", src, kind)
		}
		key, csp := canonSplit(sp)
		return key, csp
	}
	exampleThree := `R(X0,X1), R(X1,X2), R(X2,X3), R(X3,X4), R(X4,X1) -> P(X1).`
	mu := core.Subst{core.Var("X4"): core.Var("X2"), core.Var("X2"): core.Var("X2"), core.Var("X3"): core.Var("X3")}
	k1, s1 := build(exampleThree, mu, "rc")
	// The same rule with all variables renamed.
	k2, s2 := build(`R(A0,A1), R(A1,A2), R(A2,A3), R(A3,A4), R(A4,A1) -> P(A1).`,
		core.Subst{core.Var("A4"): core.Var("A2"), core.Var("A2"): core.Var("A2"), core.Var("A3"): core.Var("A3")}, "rc")
	if k1 != k2 {
		t.Errorf("isomorphic splits must share keys:\n%s\n%s", k1, k2)
	}
	if len(s1.hAtom.Args) != len(s2.hAtom.Args) {
		t.Errorf("H arities differ: %v vs %v", s1.hAtom, s2.hAtom)
	}
	// A symmetric selection of the same rule (X2 and X4 swapped roles):
	// still the same split up to isomorphism.
	k3, _ := build(exampleThree,
		core.Subst{core.Var("X2"): core.Var("X4"), core.Var("X4"): core.Var("X4"), core.Var("X3"): core.Var("X3")}, "rc")
	if k3 != k1 {
		t.Errorf("automorphic selections must share keys:\n%s\n%s", k3, k1)
	}
	// Keys embed the kind: an rnc split of a different rule never matches.
	rncRule := `R(X1,X2), R(X2,X3), R(X3,X4), R(X4,X1), R(X4,X5) -> P(X1,X2).`
	k4, _ := build(rncRule,
		core.Subst{core.Var("X1"): core.Var("X1"), core.Var("X2"): core.Var("X2"), core.Var("X3"): core.Var("X3")}, "rnc")
	if k4 == k1 {
		t.Error("rc and rnc splits must have distinct keys")
	}
}

// Expansion caps turn blow-ups into errors rather than hangs.
func TestExpansionCaps(t *testing.T) {
	th := normalize.Normalize(parser.MustParseTheory(sigmaP))
	if _, _, err := Rewrite(th, Options{Budget: &budget.T{MaxRules: 20}}); err == nil {
		t.Error("tiny cap must trigger")
	}
	big := parser.MustParseTheory(
		`R(X1,X2), R(X2,X3), R(X3,X4), R(X4,X5), R(X5,X6), R(X6,X7), R(X7,X8), R(X8,X9), R(X9,X10), R(X10,X1) -> P(X1).`)
	if _, _, err := Rewrite(normalize.Normalize(big), Options{}); err == nil {
		t.Error("variable cap must trigger")
	}
}
