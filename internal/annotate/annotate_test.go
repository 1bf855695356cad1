package annotate

import (
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/normalize"
	"guardedrules/internal/parser"
	"guardedrules/internal/rewrite"
)

func TestTransformAtomRoundTrip(t *testing.T) {
	// R's positions: (R,1) affected, (R,2) not (after proper ordering).
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(Y,X).
		R(Y,X) -> B(X).
	`)
	tr, err := NewTransform(th)
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewAtom("R", core.Const("n"), core.Const("c"))
	ann := tr.Atom(a)
	if len(ann.Args) != 1 || len(ann.Annotation) != 1 {
		t.Fatalf("annotation split wrong: %v", ann)
	}
	if ann.Args[0] != core.Const("n") || ann.Annotation[0] != core.Const("c") {
		t.Errorf("split values wrong: %v", ann)
	}
	back := tr.Undo(ann)
	if !back.Equal(a) {
		t.Errorf("round trip: %v vs %v", back, a)
	}
}

func TestTransformRejectsImproper(t *testing.T) {
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y) -> B(X).
	`)
	if _, err := NewTransform(th); err == nil {
		t.Error("improper theory must be rejected")
	}
}

func TestAnnotatedTheoryIsFrontierGuardedModuloSafe(t *testing.T) {
	// A weakly guarded theory that is not frontier-guarded.
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(Y,X).
		R(Y,X), B(Z) -> P(Y,Z).
	`)
	rep := classify.Classify(th)
	if !rep.Member[classify.WeaklyFrontierGuarded] {
		t.Fatalf("fixture must be wfg: %v", rep.Offender[classify.WeaklyFrontierGuarded])
	}
	norm := normalize.Normalize(th)
	ro := classify.ProperReorder(norm)
	proper := ro.Theory(norm)
	tr, err := NewTransform(proper)
	if err != nil {
		t.Fatal(err)
	}
	ann := tr.Theory(proper)
	ann = normalize.Normalize(ann)
	ann, err = SplitSafeFrontier(ann)
	if err != nil {
		t.Fatal(err)
	}
	// After the pipeline every rule is frontier-guarded or safe Datalog.
	ap := classify.AffectedPositions(ann)
	for _, r := range ann.Rules {
		if classify.IsFrontierGuarded(r) {
			continue
		}
		if len(classify.Unsafe(r, ap)) != 0 || len(r.Exist) != 0 {
			t.Errorf("rule neither frontier-guarded nor safe: %v", r)
		}
	}
}

// wfgAgree checks Theorem 2: ans((Σ,Q),D) = ans((rew(Σ),Q),D) via ground
// atoms of bounded chases, with the database reordered alongside.
func wfgAgree(t *testing.T, theory, facts string, depth int) {
	t.Helper()
	orig := parser.MustParseTheory(theory)
	res, err := RewriteWFG(orig, rewrite.Options{})
	if err != nil {
		t.Fatalf("RewriteWFG(%q): %v", theory, err)
	}
	rep := classify.Classify(res.Rewritten)
	if !rep.Member[classify.WeaklyGuarded] {
		t.Errorf("Theorem 2: rew(Σ) must be weakly guarded (offender %v)", rep.Offender[classify.WeaklyGuarded])
	}
	d := database.FromAtoms(parser.MustParseFacts(facts))
	rels := make(map[string]bool)
	for _, rk := range orig.Relations() {
		rels[rk.Name] = true
	}
	chOrig, err := chase.Run(orig, d, chase.Options{Variant: chase.Restricted, MaxDepth: depth, Budget: &budget.T{MaxFacts: 300_000}})
	if err != nil {
		t.Fatal(err)
	}
	dRe := res.Reorder.Database(d)
	chRew, err := chase.Run(res.Rewritten, dRe, chase.Options{Variant: chase.Restricted, MaxDepth: depth, Budget: &budget.T{MaxFacts: 300_000}})
	if err != nil {
		t.Fatal(err)
	}
	a := chOrig.DB.Restrict(func(k core.RelKey) bool { return rels[k.Name] })
	b := res.Reorder.UndoDatabase(chRew.DB).Restrict(func(k core.RelKey) bool { return rels[k.Name] })
	if ok, diff := database.SameGroundAtoms(a, b); !ok {
		t.Errorf("theory %q on %q: %s", theory, facts, diff)
	}
}

func TestTheoremTwoBasic(t *testing.T) {
	// Weakly guarded join over a null plus safe side conditions.
	wfgAgree(t, `
		A(X) -> exists Y. R(Y,X).
		R(Y,X), B(X) -> S(Y).
		R(Y,X), S(Y) -> Hit(X).
	`, `A(a). A(b). B(a). B(b).`, 5)
}

func TestTheoremTwoScatteredSafeFrontier(t *testing.T) {
	// The rule P(Y,Z) has frontier {Y,Z} with Y unsafe and Z safe, covered
	// by no single atom: exercises SplitSafeFrontier.
	wfgAgree(t, `
		A(X) -> exists Y. R(Y,X).
		R(Y,X), B(Z) -> P(Y,Z).
		P(Y,Z), R(Y,X) -> Out(X,Z).
	`, `A(a). B(b). B(c).`, 5)
}

func TestTheoremTwoNonAffectedCarry(t *testing.T) {
	// Information flows through non-affected positions alongside nulls.
	wfgAgree(t, `
		Start(X) -> exists N. Node(N,X).
		Node(N,X), Step(X,X2) -> exists M. Node(M,X2).
		Node(N,X), Final(X) -> Reached(X).
	`, `Start(s0). Step(s0,s1). Step(s1,s2). Final(s2).`, 6)
}

func TestTheoremTwoDatalogPeriphery(t *testing.T) {
	wfgAgree(t, `
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
		T(X,Y) -> exists N. W(N,X,Y).
		W(N,X,Y), Mark(X) -> Good(Y).
	`, `E(a,b). E(b,c). Mark(a).`, 4)
}

func TestRewriteWFGRejectsNonWFG(t *testing.T) {
	// Two unsafe frontier variables in no single atom.
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y), R(X2,Y2) -> P(Y,Y2).
	`)
	if _, err := RewriteWFG(th, rewrite.Options{}); err == nil {
		t.Error("non-wfg theory must be rejected")
	}
}

func TestUndoTheoryFoldsAnnotations(t *testing.T) {
	th := parser.MustParseTheory(`R[U](X) -> P[U](X).`)
	un := UndoTheory(th)
	r := un.Rules[0]
	if len(r.Body[0].Atom.Annotation) != 0 || r.Body[0].Atom.Arity() != 2 {
		t.Errorf("annotations must fold into arguments: %v", r)
	}
}

func TestTransformDatabase(t *testing.T) {
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(Y,X).
		R(Y,X) -> B(X).
	`)
	tr, err := NewTransform(th)
	if err != nil {
		t.Fatal(err)
	}
	d := database.FromAtoms(parser.MustParseFacts(`R(n,c). A(c).`))
	ann := tr.Database(d)
	want := core.Atom{Relation: "R", Annotation: []core.Term{core.Const("c")}, Args: []core.Term{core.Const("n")}}
	if !ann.Has(want) {
		t.Errorf("aΣ(D) must contain %v:\n%v", want, ann)
	}
	// A's only position is non-affected too: its argument moves into the
	// annotation as well.
	wantA := core.Atom{Relation: "A", Annotation: []core.Term{core.Const("c")}}
	if !ann.Has(wantA) {
		t.Errorf("aΣ(D) must contain %v:\n%v", wantA, ann)
	}
}

func TestSplitSafeFrontierRejectsNonWFG(t *testing.T) {
	// Unsafe frontier variables sharing no atom: not wfg.
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y), R(X2,Y2) -> P(Y,Y2).
	`)
	if _, err := SplitSafeFrontier(th); err == nil {
		t.Error("non-wfg rule must be rejected")
	}
}

func TestSplitSafeFrontierPassthroughs(t *testing.T) {
	// Frontier-guarded and safe rules pass through unchanged.
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`)
	out, err := SplitSafeFrontier(th)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rules) != len(th.Rules) {
		t.Errorf("passthrough must not change rule count: %d vs %d", len(out.Rules), len(th.Rules))
	}
}
