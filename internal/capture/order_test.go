package capture

import (
	"fmt"
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/stratified"
	"guardedrules/internal/tm"
)

func TestSuccProgramIsStratifiedWeaklyGuarded(t *testing.T) {
	th := SuccProgram()
	if _, err := datalog.Stratify(th); err != nil {
		t.Fatalf("Σsucc must be stratified: %v", err)
	}
	if !stratified.IsWeaklyGuarded(th) {
		rep := classify.Classify(th)
		t.Errorf("Σsucc must be weakly guarded (offender %v)", rep.Offender[classify.WeaklyGuarded])
	}
}

// The proof of Theorem 5: for every total order of the constants there is
// a Good null representing it, and every Good null represents a total
// order. On d constants there are exactly d! of them.
func TestSuccProgramEnumeratesAllOrders(t *testing.T) {
	for d := 1; d <= 3; d++ {
		db := database.New()
		for i := 0; i < d; i++ {
			db.Add(core.NewAtom("Obj", core.Const(fmt.Sprintf("c%d", i))))
		}
		res, err := stratified.Eval(SuccProgram(), db, stratified.Options{
			Chase: chase.Options{Variant: chase.Restricted, MaxDepth: d + 1, Budget: &budget.T{MaxFacts: 500_000}},
		})
		if err != nil {
			t.Fatal(err)
		}
		orders := GoodOrderings(res.DB)
		fact := 1
		for i := 2; i <= d; i++ {
			fact *= i
		}
		if len(orders) != fact {
			t.Fatalf("d=%d: expected %d good orderings, got %d", d, fact, len(orders))
		}
		seen := map[string]bool{}
		for _, o := range orders {
			if len(o) != d {
				t.Errorf("ordering of wrong length: %v", o)
			}
			distinct := map[core.Term]bool{}
			key := ""
			for _, c := range o {
				distinct[c] = true
				key += c.Name + ","
			}
			if len(distinct) != d {
				t.Errorf("ordering with repetition: %v", o)
			}
			if seen[key] {
				t.Errorf("duplicate ordering: %v", o)
			}
			seen[key] = true
		}
	}
}

func TestBooleanQueryIsStratifiedWeaklyGuarded(t *testing.T) {
	m := tm.EvenLength(ChrAlphabet(1))
	th, err := BooleanQuery(m, []string{"R"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := datalog.Stratify(th); err != nil {
		t.Fatalf("Theorem 5 theory must be stratified: %v", err)
	}
	if !stratified.IsWeaklyGuarded(th) {
		rep := classify.Classify(th)
		t.Errorf("Theorem 5 theory must be weakly guarded (offender %v)", rep.Offender[classify.WeaklyGuarded])
	}
}

// Theorem 5 end to end on the paper's own motivating non-monotonic query:
// "does the database have an even number of constants?".
func TestTheoremFiveEvenConstants(t *testing.T) {
	m := tm.EvenLength(ChrAlphabet(1))
	th, err := BooleanQuery(m, []string{"R"})
	if err != nil {
		t.Fatal(err)
	}
	for d := 1; d <= 3; d++ {
		db := database.New()
		for i := 0; i < d; i++ {
			// Mix R and non-R constants.
			if i%2 == 0 {
				db.Add(core.NewAtom("R", core.Const(fmt.Sprintf("c%d", i))))
			} else {
				db.Add(core.NewAtom("S", core.Const(fmt.Sprintf("c%d", i))))
			}
		}
		got, _, err := EvalBoolean(th, db, d+2)
		if err != nil {
			t.Fatal(err)
		}
		want := d%2 == 0
		if got != want {
			t.Errorf("d=%d: even-constants query got %v want %v", d, got, want)
		}
	}
}

// Theorem 5 with a query that depends on the input relation: an even
// number of R-constants.
func TestTheoremFiveEvenRCount(t *testing.T) {
	m := tm.EvenCount(ChrName("1"), ChrAlphabet(1))
	th, err := BooleanQuery(m, []string{"R"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		inR, outR int
		want      bool
	}{
		{1, 1, false},
		{2, 1, true},
		{1, 2, false},
		{2, 0, true},
	}
	for _, c := range cases {
		db := database.New()
		for i := 0; i < c.inR; i++ {
			db.Add(core.NewAtom("R", core.Const(fmt.Sprintf("r%d", i))))
		}
		for i := 0; i < c.outR; i++ {
			db.Add(core.NewAtom("S", core.Const(fmt.Sprintf("s%d", i))))
		}
		d := c.inR + c.outR
		got, _, err := EvalBoolean(th, db, d+2)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("inR=%d outR=%d: got %v want %v", c.inR, c.outR, got, c.want)
		}
	}
}

// The query must be order-invariant: whichever good ordering the machine
// reads, the verdict agrees (isomorphism-closed queries, Definition 21).
func TestTheoremFiveOrderInvariance(t *testing.T) {
	m := tm.SomeSymbol(ChrName("1"), ChrAlphabet(1))
	th, err := BooleanQuery(m, []string{"R"})
	if err != nil {
		t.Fatal(err)
	}
	db := database.New()
	db.Add(core.NewAtom("R", core.Const("a")))
	db.Add(core.NewAtom("S", core.Const("b")))
	got, _, err := EvalBoolean(th, db, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("SomeSymbol(Chr_1) must accept: a is in R")
	}
	db2 := database.New()
	db2.Add(core.NewAtom("S", core.Const("a")))
	db2.Add(core.NewAtom("S", core.Const("b")))
	got2, _, err := EvalBoolean(th, db2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got2 {
		t.Error("SomeSymbol(Chr_1) must reject: no constant is in R")
	}
}

// The lexicographic tuple order (Section 8's Firstn/Next2n/Lastn step)
// enumerates all d^k tuples: verified by walking LexNext_2 chains.
func TestLexOrderEnumeratesPairs(t *testing.T) {
	th := SuccProgram()
	th.Add(LexOrderProgram(2)...)
	d := 2
	db := database.New()
	for i := 0; i < d; i++ {
		db.Add(core.NewAtom("Obj", core.Const(fmt.Sprintf("c%d", i))))
	}
	res, err := stratified.Eval(th, db, stratified.Options{
		Chase: chase.Options{Variant: chase.Restricted, MaxDepth: d + 1, Budget: &budget.T{MaxFacts: 2_000_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// For each good ordering u: exactly one LexFirst_2, one LexLast_2, and
	// d*d - 1 LexNext_2 edges forming a chain.
	goodKey := core.RelKey{Name: "OGood", Arity: 1}
	nextKey := core.RelKey{Name: "LexNext_2", Arity: 5}
	firstKey := core.RelKey{Name: "LexFirst_2", Arity: 3}
	goods := res.DB.Facts(goodKey)
	if len(goods) != 2 {
		t.Fatalf("expected 2 good orderings, got %d", len(goods))
	}
	for _, g := range goods {
		u := g.Args[0]
		var first []core.Term
		for _, f := range res.DB.FactsWith(firstKey, 2, u) {
			first = f.Args[:2]
		}
		if first == nil {
			t.Fatal("no LexFirst_2 for a good ordering")
		}
		// Walk the chain.
		count := 1
		cur := first
		for {
			var next []core.Term
			for _, f := range res.DB.FactsWith(nextKey, 4, u) {
				if f.Args[0] == cur[0] && f.Args[1] == cur[1] {
					next = f.Args[2:4]
					break
				}
			}
			if next == nil {
				break
			}
			count++
			cur = next
			if count > d*d+1 {
				t.Fatal("lex chain too long (cycle?)")
			}
		}
		if count != d*d {
			t.Errorf("lex chain length %d, want %d", count, d*d)
		}
		if !res.DB.Has(core.NewAtom("LexLast_2", cur[0], cur[1], u)) {
			t.Error("chain must end at LexLast_2")
		}
	}
}

// Theorem 5 over a binary signature: "the graph has an even number of
// edges", a query far beyond any negation-free guarded language.
func TestTheoremFiveEvenEdges(t *testing.T) {
	m := tm.EvenCount(ChrName("1"), ChrAlphabet(1))
	th, err := BooleanQueryK(m, []string{"E"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := datalog.Stratify(th); err != nil {
		t.Fatalf("must be stratified: %v", err)
	}
	if !stratified.IsWeaklyGuarded(th) {
		rep := classify.Classify(th)
		t.Fatalf("must be weakly guarded (offender %v)", rep.Offender[classify.WeaklyGuarded])
	}
	cases := []struct {
		edges [][2]string
		want  bool
	}{
		{[][2]string{{"a", "b"}}, false},
		{[][2]string{{"a", "b"}, {"b", "a"}}, true},
		{[][2]string{{"a", "a"}, {"a", "b"}, {"b", "b"}}, false},
		{[][2]string{{"a", "a"}, {"b", "b"}}, true},
	}
	for _, c := range cases {
		db := database.New()
		db.Add(core.NewAtom("Node", core.Const("a")))
		db.Add(core.NewAtom("Node", core.Const("b")))
		for _, e := range c.edges {
			db.Add(core.NewAtom("E", core.Const(e[0]), core.Const(e[1])))
		}
		d := len(db.Constants())
		got, _, err := EvalBoolean(th, db, d*d+2)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("edges %v: got %v want %v", c.edges, got, c.want)
		}
	}
}
