package kb

import (
	"errors"
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/parser"
	"guardedrules/internal/rewrite"
	"guardedrules/internal/saturate"
)

const sigmaP = `
Publication(X) -> exists K1,K2. Keywords(X,K1,K2).
Keywords(X,K1,K2) -> hasTopic(X,K1).
hasTopic(X,Z), hasAuthor(X,U), hasAuthor(Y,U),
  hasTopic(Y,Z2), Scientific(Z2), citedIn(Y,X) -> Scientific(Z).
`

const exampleDB = `
Publication(p1). Publication(p2).
citedIn(p1,p2).
hasAuthor(p1,a1). hasAuthor(p2,a1). hasAuthor(p2,a2).
hasTopic(p1,t1). Scientific(t1).
`

func TestAttachMakesWFG(t *testing.T) {
	th := parser.MustParseTheory(sigmaP)
	q := CQ{
		Answer: []core.Term{core.Var("Y")},
		Atoms: []core.Atom{
			core.NewAtom("hasAuthor", core.Var("X"), core.Var("Y")),
			core.NewAtom("hasTopic", core.Var("X"), core.Var("Z")),
			core.NewAtom("Scientific", core.Var("Z")),
		},
	}
	kbth, err := Attach(th, q)
	if err != nil {
		t.Fatal(err)
	}
	rep := classify.Classify(kbth)
	if !rep.Member[classify.WeaklyFrontierGuarded] {
		t.Errorf("attached query must be wfg (offender %v)", rep.Offender[classify.WeaklyFrontierGuarded])
	}
}

func TestCQValidate(t *testing.T) {
	bad := CQ{Answer: []core.Term{core.Var("Z")}, Atoms: []core.Atom{core.NewAtom("R", core.Var("X"))}}
	if err := bad.Validate(); err == nil {
		t.Error("answer variable not in query must be rejected")
	}
	badConst := CQ{Answer: []core.Term{core.Const("a")}, Atoms: []core.Atom{core.NewAtom("R", core.Var("X"))}}
	if err := badConst.Validate(); err == nil {
		t.Error("constant answer term must be rejected")
	}
}

// The running example as a knowledge-base query: authors of scientific
// publications are a1 and a2.
func TestAnswerByChaseRunningExample(t *testing.T) {
	th := parser.MustParseTheory(sigmaP)
	q := CQ{
		Answer: []core.Term{core.Var("Y")},
		Atoms: []core.Atom{
			core.NewAtom("hasAuthor", core.Var("X"), core.Var("Y")),
			core.NewAtom("hasTopic", core.Var("X"), core.Var("Z")),
			core.NewAtom("Scientific", core.Var("Z")),
		},
	}
	d := database.FromAtoms(parser.MustParseFacts(exampleDB))
	ans, saturated, err := AnswerByChase(th, q, d, chase.Options{Variant: chase.Restricted, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !saturated {
		t.Error("the running example chase must saturate")
	}
	want := [][]core.Term{{core.Const("a1")}, {core.Const("a2")}}
	if ok, diff := datalog.SameAnswers(ans, want); !ok {
		t.Errorf("answers: %s (got %v)", diff, ans)
	}
}

func TestPartialGroundingMakesGuarded(t *testing.T) {
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(Y,X).
		R(Y,X), B(X), C(Z) -> P(Y,Z).
	`)
	rep := classify.Classify(th)
	if !rep.Member[classify.WeaklyGuarded] {
		t.Fatal("fixture must be weakly guarded")
	}
	d := database.FromAtoms(parser.MustParseFacts(`A(a). B(a). C(c1). C(c2).`))
	pg, err := PartialGrounding(th, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every rule of pg is guarded or fully ground.
	for _, r := range pg.Rules {
		if !classify.IsGuarded(r) {
			t.Errorf("pg rule not guarded: %v", r)
		}
	}
	// The active domain is {a, c1, c2}: rule 1 grounds its safe X three
	// ways, rule 2 grounds safe X and Z nine ways; 12 rules total.
	if len(pg.Rules) != 12 {
		t.Errorf("pg size: %d rules", len(pg.Rules))
	}
}

func TestPartialGroundingCap(t *testing.T) {
	th := parser.MustParseTheory(`R(X,Y), S(Z), T(W) -> P(X).`)
	d := database.FromAtoms(parser.MustParseFacts(`R(a,b). S(c). T(d).`))
	pg, err := PartialGrounding(th, d, &budget.T{MaxRules: 10})
	if !errors.Is(err, budget.ErrRuleLimit) {
		t.Fatalf("err = %v, want the grounding cap's ErrRuleLimit", err)
	}
	if pg == nil || len(pg.Rules) != 10 {
		t.Fatalf("want the 10 rules grounded before the cap, got %v", pg)
	}
}

// The Section 7 pipeline agrees with the direct chase on a compact
// weakly frontier-guarded knowledge base.
func TestAnswerByPipelineAgreesWithChase(t *testing.T) {
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(Y,X).
		R(Y,X), B(X) -> S(Y).
	`)
	q := CQ{
		Answer: []core.Term{core.Var("X")},
		Atoms: []core.Atom{
			core.NewAtom("R", core.Var("Y"), core.Var("X")),
			core.NewAtom("S", core.Var("Y")),
		},
	}
	d := database.FromAtoms(parser.MustParseFacts(`A(a). A(b). B(a).`))
	chaseAns, _, err := AnswerByChase(th, q, d, chase.Options{Variant: chase.Restricted, MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	pipeAns, stats, err := AnswerByPipeline(th, q, d, rewrite.Options{}, saturate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := datalog.SameAnswers(chaseAns, pipeAns); !ok {
		t.Errorf("pipeline vs chase: %s (chase %v, pipeline %v, stats %+v)", diff, chaseAns, pipeAns, stats)
	}
	if stats.RewrittenRules == 0 || stats.DatalogRules == 0 {
		t.Errorf("pipeline stats empty: %+v", stats)
	}
	want := [][]core.Term{{core.Const("a")}}
	if ok, diff := datalog.SameAnswers(pipeAns, want); !ok {
		t.Errorf("expected answers {a}: %s", diff)
	}
}

// CQs whose shape is not frontier-guarded still work thanks to the ACDom
// guarding of the query rule.
func TestUnguardedCQ(t *testing.T) {
	th := parser.MustParseTheory(`
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`)
	q := CQ{
		Answer: []core.Term{core.Var("X"), core.Var("Z")},
		Atoms: []core.Atom{
			core.NewAtom("T", core.Var("X"), core.Var("Y")),
			core.NewAtom("T", core.Var("Y"), core.Var("Z")),
		},
	}
	d := database.FromAtoms(parser.MustParseFacts(`E(a,b). E(b,c). E(c,d).`))
	ans, _, err := AnswerByChase(th, q, d, chase.Options{Variant: chase.Restricted})
	if err != nil {
		t.Fatal(err)
	}
	// Two-step T-pairs: since T is transitively closed, any pair with an
	// intermediate node: a-c, a-d, b-d (via direct edges) plus pairs using
	// closed edges: a->c->d, a->b->d, etc.
	found := false
	for _, tu := range ans {
		if tu[0] == core.Const("a") && tu[1] == core.Const("d") {
			found = true
		}
	}
	if !found {
		t.Errorf("(a,d) must be an answer: %v", ans)
	}
}
