package rewrite

import (
	"math/bits"
	"slices"
	"strings"
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

// ruleOf returns a fresh expander over relations of arity at most k and
// the single rule of src in id space.
func ruleOf(t *testing.T, k int, src string) (*expander, *xrule) {
	t.Helper()
	e := &expander{k: k, relIDs: map[core.RelKey]int32{}, termIDs: map[core.Term]int32{}}
	return e, e.fromCore(parser.MustParseTheory(src).Rules[0], false)
}

// varID is the id of the named variable of x.
func varID(x *xrule, name string) int8 { return int8(slices.Index(x.vars, core.Var(name))) }

// selectionOf builds the selection µ given by variable names.
func selectionOf(x *xrule, mu map[string]string) *selection {
	s := &selection{}
	for from, to := range mu {
		s.dom |= 1 << varID(x, from)
		s.img[varID(x, from)] = varID(x, to)
	}
	return s
}

// maskOf is the variable mask of the named variables of x.
func maskOf(x *xrule, names ...string) uint16 {
	var m uint16
	for _, n := range names {
		m |= 1 << varID(x, n)
	}
	return m
}

func TestSelectionsEnumeration(t *testing.T) {
	_, x := ruleOf(t, 2, `R(X,Y), S(Y,Z) -> P(X).`)
	seen := make(map[selection]bool)
	err := selections(x.uv, 2, func(s *selection) error {
		// Idempotency and range bound.
		var ran uint16
		for m := s.dom; m != 0; m &= m - 1 {
			x := bits.TrailingZeros16(m)
			y := s.img[x]
			ran |= 1 << y
			if s.dom&(1<<y) == 0 || s.img[y] != y {
				t.Fatalf("selection not idempotent: %d -> %d", x, y)
			}
		}
		if bits.OnesCount16(ran) > 2 {
			t.Fatalf("range exceeds k: %+v", *s)
		}
		key := selection{dom: s.dom}
		for m := s.dom; m != 0; m &= m - 1 {
			key.img[bits.TrailingZeros16(m)] = s.img[bits.TrailingZeros16(m)]
		}
		if seen[key] {
			t.Fatalf("duplicate selection %+v", key)
		}
		seen[key] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ranges {X},{Y},{Z} leave two variables unmapped or mapped into the
	// range (4 each); ranges of two leave one variable with 3 choices.
	if len(seen) != 3*4+3*3 {
		t.Fatalf("%d selections, want 21", len(seen))
	}
}

func TestCoveredAndKeep(t *testing.T) {
	// Example 3 of the paper: σ = R(x0,x1),R(x1,x2),R(x2,x3),R(x3,x4),
	// R(x4,x1) → P(x1), µ = {x4→x2, x2→x2, x3→x3}.
	_, x := ruleOf(t, 2, `R(X0,X1), R(X1,X2), R(X2,X3), R(X3,X4), R(X4,X1) -> P(X1).`)
	s := selectionOf(x, map[string]string{"X4": "X2", "X2": "X2", "X3": "X3"})
	c := x.cover(s.dom)
	if c.n != 2 || c.covArg != maskOf(x, "X2", "X3", "X4") {
		t.Fatalf("cov: %+v (want R(X2,X3), R(X3,X4))", c)
	}
	if keep, ok := x.admits(s, c, true); !ok || keep != maskOf(x, "X2") {
		t.Errorf("keep: %b (want {X2})", keep)
	}
}

func TestExampleFourKeep(t *testing.T) {
	// Example 4: σ4 with µ = {x→x, z→z}: cov = {hasTopic(x,z),
	// Scientific(z)}, keep = {x}.
	_, x := ruleOf(t, 2, `hasAuthor(X,Y), hasTopic(X,Z), Scientific(Z) -> Q(Y).`)
	s := selectionOf(x, map[string]string{"X": "X", "Z": "Z"})
	c := x.cover(s.dom)
	if c.n != 2 {
		t.Fatalf("cov: %+v", c)
	}
	if keep, ok := x.admits(s, c, true); !ok || keep != maskOf(x, "X") {
		t.Errorf("keep: %b (want {X})", keep)
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
	e, x := ruleOf(t, 2, `R(X0,X1), R(X1,X2), R(X2,X3), R(X3,X4), R(X4,X1) -> P(X1).`)
	s := selectionOf(x, map[string]string{"X4": "X2", "X2": "X2", "X3": "X3"})
	keep, ok := x.admits(s, x.cover(s.dom), true)
	if !ok {
		t.Fatal("Example 3's rc split must be admissible")
	}
	sp := e.buildSplit(x, s, true, keep)
	// removed = µ(cov) = {R(X2,X3), R(X3,X2)}; kept has the remaining
	// atoms with X4 renamed to X2; the head keeps P(X1).
	if len(sp.removed) != 2 {
		t.Errorf("removed: %v", sp.removed)
	}
	if len(sp.hArgs) != 1 || sp.hArgs[0] != int32(varID(x, "X2")) {
		t.Errorf("H args: %v (want {X2})", sp.hArgs)
	}
	if e.rels[sp.head.Rel].Name != "P" {
		t.Errorf("head: %v", sp.head)
	}
	// The σ′′-style remainder has fewer variables than σ (X3, X4 vanish).
	keptVars := e.argMasks(sp.kept) | keep
	if bits.OnesCount16(keptVars) >= bits.OnesCount16(x.uv) {
		t.Errorf("no variable projection: %b vs %b", keptVars, x.uv)
	}
}

func TestExampleFiveSplitShapes(t *testing.T) {
	e, x := ruleOf(t, 2, `R(X1,X2), R(X2,X3), R(X3,X4), R(X4,X1), R(X4,X5) -> P(X1,X2).`)
	s := selectionOf(x, map[string]string{"X1": "X1", "X2": "X2", "X3": "X3"})
	c := x.cover(s.dom)
	if c.n != 2 { // R(X1,X2), R(X2,X3)
		t.Fatalf("cov: %+v", c)
	}
	// Example 5: keep = {x1, x3} (x2 occurs in the head but not in
	// body\cov, so it is re-bound through µ(cov) in σ′′).
	keep, ok := x.admits(s, c, false)
	if !ok {
		t.Fatal("Example 5's rnc split must be admissible")
	}
	if keep != maskOf(x, "X1", "X3") {
		t.Errorf("keep: %b (want {X1,X3})", keep)
	}
	sp := e.buildSplit(x, s, false, keep)
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
	_, x := ruleOf(t, 2, `R(X0,X1), R(X1,X2), R(X2,X1), A(X2) -> P(X1).`)
	if m := x.measure; m != 1 {
		t.Errorf("measure: got %d want 1", m)
	}
	_, x = ruleOf(t, 2, `R(X0,X1) -> P(X1).`)
	if m := x.measure; m != 0 {
		t.Errorf("guarded rule must have measure 0, got %d", m)
	}
}

// canonSplit: isomorphic splits share keys and receive corresponding H
// argument orders; different kinds and structures get distinct keys.
func TestCanonSplitIsomorphismInvariance(t *testing.T) {
	e := &expander{k: 2, relIDs: map[core.RelKey]int32{}, termIDs: map[core.Term]int32{}}
	build := func(src string, mu map[string]string, rc bool) (string, split) {
		x := e.fromCore(parser.MustParseTheory(src).Rules[0], false)
		s := selectionOf(x, mu)
		keep, ok := x.admits(s, x.cover(s.dom), rc)
		if !ok {
			t.Fatalf("split not admissible for %q (rc %v)", src, rc)
		}
		sp := e.buildSplit(x, s, rc, keep)
		return e.canonSplit(x, &sp), sp
	}
	exampleThree := `R(X0,X1), R(X1,X2), R(X2,X3), R(X3,X4), R(X4,X1) -> P(X1).`
	k1, s1 := build(exampleThree, map[string]string{"X4": "X2", "X2": "X2", "X3": "X3"}, true)
	// The same rule with all variables renamed.
	k2, s2 := build(`R(A0,A1), R(A1,A2), R(A2,A3), R(A3,A4), R(A4,A1) -> P(A1).`,
		map[string]string{"A4": "A2", "A2": "A2", "A3": "A3"}, true)
	if k1 != k2 {
		t.Errorf("isomorphic splits must share keys:\n%q\n%q", k1, k2)
	}
	if len(s1.hArgs) != len(s2.hArgs) {
		t.Errorf("H arities differ: %v vs %v", s1.hArgs, s2.hArgs)
	}
	// A symmetric selection of the same rule (X2 and X4 swapped roles):
	// still the same split up to isomorphism.
	k3, _ := build(exampleThree, map[string]string{"X2": "X4", "X4": "X4", "X3": "X3"}, true)
	if k3 != k1 {
		t.Errorf("automorphic selections must share keys:\n%q\n%q", k3, k1)
	}
	// Keys embed the kind: an rnc split of a different rule never matches.
	k4, _ := build(`R(X1,X2), R(X2,X3), R(X3,X4), R(X4,X1), R(X4,X5) -> P(X1,X2).`,
		map[string]string{"X1": "X1", "X2": "X2", "X3": "X3"}, false)
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

// H's arguments follow the canonical numberings and, between variables
// that an automorphism of the split swaps, their names: the split of
// E(X,Z), E(Y,Z) off R(W,X), R(W,Y) is symmetric in X and Y. No golden
// theory has such a tie, so only this test pins the name order.
func TestSymmetricSplitKeepsNameOrder(t *testing.T) {
	th := normalize.Normalize(parser.MustParseTheory(`A(X) -> exists Y,Z. T(X,Y,Z). R(W,X), R(W,Y), E(X,Z), E(Y,Z) -> P(W).`))
	rew, _, err := Rewrite(th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	printed := parser.PrintTheory(rew)
	for _, want := range []string{
		"NodeBag_3(?X,?Y,?Z), E(?X,?Z), E(?Y,?Z) -> Aux_9(?X,?Y).\n",
		"NodeBag_3(?W,?X,?Y), Aux_9(?X,?Y), R(?W,?X), R(?W,?Y) -> P(?W).\n",
	} {
		if !strings.Contains(printed, want) {
			t.Errorf("rew(Σ) lacks %q:\n%s", want, printed)
		}
	}
}
