package chase

import (
	"errors"
	"sync"
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/hom"
	"guardedrules/internal/parser"
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

func mustRun(t *testing.T, theory, facts string, opts Options) *Result {
	t.Helper()
	th := parser.MustParseTheory(theory)
	d := database.FromAtoms(parser.MustParseFacts(facts))
	res, err := Run(th, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Example 1/2 of the paper: the chase must witness Q(a1) and Q(a2).
func TestRunningExampleEntailments(t *testing.T) {
	for _, v := range []Variant{Oblivious, Restricted} {
		res := mustRun(t, sigmaP, exampleDB, Options{Variant: v})
		if !res.Saturated {
			t.Fatalf("variant %v: chase must terminate", v)
		}
		for _, c := range []string{"a1", "a2"} {
			if !res.Entails(core.NewAtom("Q", core.Const(c))) {
				t.Errorf("variant %v: Q(%s) must be entailed", v, c)
			}
		}
		if res.Entails(core.NewAtom("Q", core.Const("t1"))) {
			t.Errorf("variant %v: Q(t1) must not be entailed", v)
		}
		if res.Entails(core.NewAtom("Scientific", core.Const("t2"))) {
			t.Errorf("variant %v: unknown constant must not appear", v)
		}
	}
}

// Example 7 of the paper: guarded theory deriving D(c) through nulls.
func TestExampleSevenChase(t *testing.T) {
	res := mustRun(t, `
		A(X) -> exists Y. R(X,Y).
		R(X,Y) -> S(Y,Y).
		S(X,Y) -> exists Z. T(X,Y,Z).
		T(X,X,Y) -> B(X).
		C(X), R(X,Y), B(Y) -> D(X).
	`, `A(c). C(c).`, Options{})
	if !res.Saturated {
		t.Fatal("chase must terminate")
	}
	if !res.Entails(core.NewAtom("D", core.Const("c"))) {
		t.Error("D(c) must be entailed (Example 7)")
	}
}

func TestDatalogChaseIsFixpoint(t *testing.T) {
	res := mustRun(t, `
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`, `E(a,b). E(b,c). E(c,d).`, Options{})
	if !res.Saturated {
		t.Fatal("datalog chase must saturate")
	}
	want := [][2]string{{"a", "b"}, {"a", "c"}, {"a", "d"}, {"b", "c"}, {"b", "d"}, {"c", "d"}}
	for _, p := range want {
		if !res.Entails(core.NewAtom("T", core.Const(p[0]), core.Const(p[1]))) {
			t.Errorf("T(%s,%s) missing", p[0], p[1])
		}
	}
	if res.Entails(core.NewAtom("T", core.Const("b"), core.Const("a"))) {
		t.Error("T(b,a) must not be derived")
	}
}

func TestInfiniteChaseTruncation(t *testing.T) {
	res := mustRun(t, `
		Person(X) -> exists Y. hasParent(X,Y).
		hasParent(X,Y) -> Person(Y).
	`, `Person(adam).`, Options{MaxDepth: 3})
	if res.Saturated || !res.Truncated {
		t.Error("depth-bounded run of an infinite chase must be truncated")
	}
	// Depth 3 gives exactly 3 ancestors.
	n := 0
	for _, d := range res.Depth {
		if d > 3 {
			t.Errorf("null beyond depth bound: %d", d)
		}
		n++
	}
	if n != 3 {
		t.Errorf("expected 3 nulls at depth bound 3, got %d", n)
	}
}

// budgetRun runs a chase expected to exhaust a budget ceiling, returning
// the partial result.
func budgetRun(t *testing.T, theory, facts string, b *budget.T, want error) *Result {
	t.Helper()
	th := parser.MustParseTheory(theory)
	d := database.FromAtoms(parser.MustParseFacts(facts))
	res, err := Run(th, d, Options{Budget: b})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	if res == nil || !res.Truncated {
		t.Fatalf("budget exhaustion must return a truncated partial result, got %+v", res)
	}
	return res
}

func TestMaxFactsTruncation(t *testing.T) {
	res := budgetRun(t, `
		Person(X) -> exists Y. hasParent(X,Y).
		hasParent(X,Y) -> Person(Y).
	`, `Person(adam).`, &budget.T{MaxFacts: 30}, budget.ErrFactLimit)
	if res.DB.Len() > 40 {
		t.Errorf("database grew far beyond budget: %d", res.DB.Len())
	}
}

// The restricted chase result must be homomorphically equivalent to the
// oblivious one on terminating instances.
func TestRestrictedEquivalentToOblivious(t *testing.T) {
	ob := mustRun(t, sigmaP, exampleDB, Options{Variant: Oblivious})
	re := mustRun(t, sigmaP, exampleDB, Options{Variant: Restricted})
	if re.DB.Len() > ob.DB.Len() {
		t.Error("restricted chase must not be larger than oblivious")
	}
	if !hom.Equivalent(ob.DB.UserFacts(), re.DB.UserFacts()) {
		t.Error("restricted and oblivious chase must be hom-equivalent")
	}
	ok, diff := database.SameGroundAtoms(ob.DB, re.DB)
	if !ok {
		t.Errorf("ground atoms must agree: %s", diff)
	}
}

func TestRestrictedAvoidsRedundantNulls(t *testing.T) {
	// R(x,y) already satisfies the head of A(x) → ∃y R(x,y).
	res := mustRun(t, `A(X) -> exists Y. R(X,Y).`, `A(a). R(a,b).`, Options{Variant: Restricted})
	if len(res.DB.Nulls()) != 0 {
		t.Errorf("restricted chase must not invent a null: %v", res.DB.Nulls())
	}
	ob := mustRun(t, `A(X) -> exists Y. R(X,Y).`, `A(a). R(a,b).`, Options{Variant: Oblivious})
	if len(ob.DB.Nulls()) != 1 {
		t.Errorf("oblivious chase must fire anyway: %v", ob.DB.Nulls())
	}
}

func TestConstantRuleFiresOnce(t *testing.T) {
	res := mustRun(t, `-> Scientific(logic). Scientific(X) -> Topic(X).`, `Dummy(d).`, Options{})
	if !res.Entails(core.NewAtom("Topic", core.Const("logic"))) {
		t.Error("constant rules must seed the chase")
	}
	if res.Steps != 2 {
		t.Errorf("expected 2 steps, got %d", res.Steps)
	}
}

func TestNegationAgainstEDB(t *testing.T) {
	res := mustRun(t, `Node(X), not Red(X) -> Green(X).`, `Node(a). Node(b). Red(a).`, Options{})
	if res.Entails(core.NewAtom("Green", core.Const("a"))) {
		t.Error("negation must block Green(a)")
	}
	if !res.Entails(core.NewAtom("Green", core.Const("b"))) {
		t.Error("Green(b) must be derived")
	}
}

func TestZeroAryHeads(t *testing.T) {
	res := mustRun(t, `A(X), B(X) -> Accept().`, `A(a). B(a).`, Options{})
	if !res.Entails(core.NewAtom("Accept")) {
		t.Error("zero-ary atom must be derivable")
	}
}

func TestChaseTreeRunningExample(t *testing.T) {
	th := parser.MustParseTheory(sigmaP)
	d := database.FromAtoms(parser.MustParseFacts(exampleDB))
	tree, res, err := RunTree(th, d, Options{Variant: Oblivious})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatal("chase must terminate")
	}
	if err := tree.VerifyProposition2(th, d); err != nil {
		t.Errorf("Proposition 2 violated: %v", err)
	}
	// Non-root nodes hold the Keywords atoms over nulls; each has at most
	// m = 3 terms.
	if len(tree.Nodes) < 3 {
		t.Errorf("expected ≥3 nodes (root + two Keywords bags), got %d", len(tree.Nodes))
	}
	// The tree atoms are exactly the chase atoms.
	if !hom.Equivalent(tree.AllAtoms(), res.DB.UserFacts()) {
		t.Error("tree atoms must cover the chase")
	}
	// Width bound from Section 4: max(|D terms|+k, m).
	dTerms := len(d.Terms())
	if w := tree.Width(); w+1 > dTerms && w+1 > th.MaxArity() {
		t.Errorf("width %d exceeds bound", w)
	}
}

func TestChaseTreeRejectsNonNormal(t *testing.T) {
	th := parser.MustParseTheory(`A(X) -> P(X), Q(X).`)
	if _, _, err := RunTree(th, database.New(), Options{}); err == nil {
		t.Error("multi-atom heads must be rejected")
	}
	th2 := parser.MustParseTheory(`R(X,Y), R(Y,Z) -> P(X,Z).`)
	if _, _, err := RunTree(th2, database.New(), Options{}); err == nil {
		t.Error("non-frontier-guarded rules must be rejected")
	}
}

func TestChaseTreeDeepNesting(t *testing.T) {
	// A linear chain of nulls: each node refers to the previous null only.
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y) -> A(Y).
	`)
	d := database.FromAtoms(parser.MustParseFacts(`A(c).`))
	tree, res, err := RunTree(th, d, Options{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Error("infinite chase must be truncated")
	}
	if err := tree.VerifyProposition2(th, d); err != nil {
		t.Errorf("Proposition 2 violated: %v", err)
	}
	if tree.Depth() < 3 {
		t.Errorf("expected a chain of depth ≥3, got %d", tree.Depth())
	}
}

func TestEntailsOnlyGroundMeaningful(t *testing.T) {
	res := mustRun(t, `A(X) -> exists Y. R(X,Y).`, `A(a).`, Options{})
	if res.Entails(core.NewAtom("R", core.Const("a"), core.Const("b"))) {
		t.Error("R(a,b) is not entailed; nulls are not constants")
	}
}

// Universality property (Section 2): there is a homomorphism from
// chase(Σ, D) into every solution of (Σ, D). Solutions are built by
// chasing supersets of D.
func TestChaseUniversality(t *testing.T) {
	th := parser.MustParseTheory(sigmaP)
	base := parser.MustParseFacts(exampleDB)
	d := database.FromAtoms(base)
	chaseRes, err := Run(th, d, Options{Variant: Restricted})
	if err != nil {
		t.Fatal(err)
	}
	extras := [][]core.Atom{
		parser.MustParseFacts(`Publication(p3). hasAuthor(p3,a9).`),
		parser.MustParseFacts(`Scientific(t9). hasTopic(p1,t9).`),
		parser.MustParseFacts(`Keywords(p1,k1,k2). Keywords(p2,k3,k4).`),
	}
	for i, extra := range extras {
		bigger := database.FromAtoms(append(append([]core.Atom(nil), base...), extra...))
		sol, err := Run(th, bigger, Options{Variant: Restricted})
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Saturated {
			t.Fatalf("solution %d not saturated", i)
		}
		// sol.DB is a solution of (Σ, D): it contains D and satisfies Σ.
		if !hom.IntoAtoms(chaseRes.DB.UserFacts(), sol.DB.UserFacts()) {
			t.Errorf("no homomorphism from the chase into solution %d", i)
		}
	}
}

// The chase result itself satisfies the theory (it is a solution).
func TestChaseIsASolution(t *testing.T) {
	th := parser.MustParseTheory(sigmaP)
	d := database.FromAtoms(parser.MustParseFacts(exampleDB))
	res, err := Run(th, d, Options{Variant: Restricted})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatal("must saturate")
	}
	// Every rule: every body homomorphism extends to a head homomorphism.
	for _, r := range th.Rules {
		body := r.PositiveBody()
		ok := hom.ForEach(body, res.DB, nil, func(s core.Subst) bool {
			init := core.Subst{}
			ev := r.EVarSet()
			for v, tval := range s {
				if !ev.Has(v) {
					init[v] = tval
				}
			}
			return hom.Exists(r.Head, res.DB, init)
		})
		if !ok {
			t.Errorf("rule %s violated in the chase result", r.Label)
		}
	}
}

func TestMaxRoundsTruncation(t *testing.T) {
	budgetRun(t, `
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`, `E(a,b). E(b,c). E(c,d). E(d,e).`, &budget.T{MaxRounds: 1}, budget.ErrRoundLimit)
}

// runConcurrently runs the chase of th over d on n goroutines at once —
// n requests over one shared snapshot — and returns the first result,
// failing the test unless every run succeeds with the same step count
// and a byte-identical database.
func runConcurrently(t *testing.T, th *core.Theory, d *database.Database, opts Options, n int) *Result {
	t.Helper()
	res := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], errs[i] = Run(th, d, opts)
		}(i)
	}
	wg.Wait()
	for i := range res {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d of %d: %v", i, n, errs[i])
		}
		if res[i].Steps != res[0].Steps || res[i].DB.String() != res[0].DB.String() {
			t.Fatalf("concurrent run %d of %d diverged from run 0", i, n)
		}
	}
	return res[0]
}

// Parallel requests over one shared input must each produce exactly the
// database and step count of a single run.
func TestParallelChaseDeterministic(t *testing.T) {
	th := parser.MustParseTheory(sigmaP)
	d := database.FromAtoms(parser.MustParseFacts(exampleDB))
	seq, err := Run(th, d, Options{Variant: Restricted, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	par := runConcurrently(t, th, d, Options{Variant: Restricted, MaxDepth: 6}, 4)
	if par.Steps != seq.Steps {
		t.Errorf("steps %d vs %d", par.Steps, seq.Steps)
	}
	if par.DB.String() != seq.DB.String() {
		t.Error("databases differ")
	}
}

func TestParallelChaseBiggerWorkload(t *testing.T) {
	th := parser.MustParseTheory(`
		ACDom2(X) -> Obj(X).
		Obj(X) -> exists U. OMin(X,U).
		OMin(X,U), Obj(Y) -> exists V. Edge(X,Y,U,V).
		Edge(X,Y,U,V) -> Seen(Y,V).
	`)
	d := database.New()
	for i := 0; i < 5; i++ {
		d.Add(core.NewAtom("ACDom2", core.Const(string(rune('a'+i)))))
	}
	seq, err := Run(th, d, Options{Variant: Restricted, MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	par := runConcurrently(t, th, d, Options{Variant: Restricted, MaxDepth: 3}, 4)
	if seq.DB.Len() != par.DB.Len() || seq.Steps != par.Steps {
		t.Errorf("parallel diverged: %d/%d facts, %d/%d steps",
			seq.DB.Len(), par.DB.Len(), seq.Steps, par.Steps)
	}
}
