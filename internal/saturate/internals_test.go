package saturate

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/core"
	"guardedrules/internal/parser"
)

func testPool(maxSize int) *pool {
	p := newPool()
	p.maxSize = maxSize
	return p
}

// addSrc parses one rule and adds it to the pool.
func addSrc(t *testing.T, p *pool, src string) (int32, error) {
	t.Helper()
	body, head, nv := p.fromCore(parser.MustParseTheory(src).Rules[0])
	i, _, err := p.add(body, head, nv, "")
	return i, err
}

// String forms of a pooled rule, for assertions.
func (p *pool) show(i int32) string { return p.toCore(p.rules[i]).String() }

func TestNormalizeRuleDedupAndExist(t *testing.T) {
	p := testPool(100)
	i, err := addSrc(t, p, `A(X), A(X) -> exists Y,Z. R(X,Y), R(X,Y), S(Z).`)
	if err != nil {
		t.Fatal(err)
	}
	r := p.rules[i]
	if len(r.body) != 1 || len(r.head) != 2 {
		t.Errorf("dedup failed: %s", p.show(i))
	}
	// Y and Z occur in the head only: two existential variables.
	if r.nv-r.nb != 2 || !r.existential() {
		t.Errorf("existential variables: nb=%d nv=%d", r.nb, r.nv)
	}
	// A head variable that also occurs in the body is universal.
	j, err := addSrc(t, p, `R(X,Y) -> S(Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if p.rules[j].existential() {
		t.Errorf("%s must be Datalog", p.show(j))
	}
}

// Bodies equal up to renaming and atom order get one serialization, and
// their canonical numberings map them onto literally equal atom lists:
// the body isomorphism a fold needs is read off the numberings.
func TestBodyIsoFindsRenaming(t *testing.T) {
	p := testPool(100)
	a, _, nva := p.fromCore(parser.MustParseTheory(`R(X,Y), S(Y) -> P(X).`).Rules[0])
	b, _, nvb := p.fromCore(parser.MustParseTheory(`S(Q), R(P,Q) -> P(P).`).Rules[0])
	sa, na := p.cz.Canon(a, nva, nil)
	sb, nb := p.cz.Canon(b, nvb, nil)
	if slices.Compare(sa, sb) != 0 {
		t.Fatalf("isomorphic bodies serialize differently: %v vs %v", sa, sb)
	}
	ra := renumber(a, nil, nva, na[0])
	rb := renumber(b, nil, nvb, nb[0])
	for _, x := range ra.body {
		if !containsAtom(rb.body, x) {
			t.Fatalf("canonical bodies differ: %v vs %v", ra.body, rb.body)
		}
	}
	c, _, nvc := p.fromCore(parser.MustParseTheory(`R(X,Y), S(X) -> P(X).`).Rules[0])
	if sc, _ := p.cz.Canon(c, nvc, nil); slices.Compare(sa, sc) == 0 {
		t.Error("non-isomorphic bodies must serialize differently")
	}
}

// A folded head component is implied — and dropped — exactly when a
// homomorphism fixing the body variables maps it into the pooled head.
func TestHeadSubsumedUpToEvars(t *testing.T) {
	p := testPool(100)
	i, _ := addSrc(t, p, `A(X) -> exists Y. R(X,Y).`)
	for _, src := range []string{
		`A(Z) -> exists V. R(Z,V).`,           // evar renamed
		`A(X) -> exists Y,Z. R(X,Y), R(X,Z).`, // two copies, one image
	} {
		if _, err := addSrc(t, p, src); err != nil {
			t.Fatal(err)
		}
		if n := len(p.rules[i].head); n != 1 {
			t.Fatalf("%s must be subsumed; head is now %s", src, p.show(i))
		}
	}
	// R(X,X) puts a body variable where the pooled head has a null: new.
	addSrc(t, p, `A(X) -> exists Y. R(X,X), S(Y).`)
	if n := len(p.rules[i].head); n != 3 {
		t.Fatalf("R(X,X) and S(·) must be added: %s", p.show(i))
	}
	// A linked component is kept whole, under fresh nulls: R(X,Y) alone
	// does not imply R(X,Y) ∧ T(Y).
	addSrc(t, p, `A(X) -> exists Y. R(X,Y), T(Y).`)
	r := p.rules[i]
	if n := len(r.head); n != 5 {
		t.Fatalf("linked component must be added whole: %s", p.show(i))
	}
	last := r.head[len(r.head)-1]
	prev := r.head[len(r.head)-2]
	if last.Args[0] != prev.Args[1] || last.Args[0] < r.nb {
		t.Errorf("component lost its null linkage: %s", p.show(i))
	}
}

func TestMergeExistentialGrowsHeads(t *testing.T) {
	p := testPool(100)
	if _, err := addSrc(t, p, `A(X) -> exists Y. R(X,Y).`); err != nil {
		t.Fatal(err)
	}
	if _, err := addSrc(t, p, `A(Q) -> exists W. S(Q,W).`); err != nil {
		t.Fatal(err)
	}
	// Same canonical body A(·): one pooled rule with both head atoms,
	// under distinct nulls.
	if len(p.rules) != 1 {
		t.Fatalf("expected one pooled rule, got %d", len(p.rules))
	}
	r := p.rules[0]
	if len(r.head) != 2 || r.nv-r.nb != 2 {
		t.Errorf("merged head: %s", p.show(0))
	}
	if r.pend != 0 || len(p.work) != 1 {
		t.Errorf("merged rule must stay queued once from its start: pend=%d work=%v", r.pend, p.work)
	}
}

func TestSaturationCapErrors(t *testing.T) {
	// Every insertion goes through the one capped insert: Datalog rules,
	// new existential bodies and head projections alike.
	for _, srcs := range [][]string{
		{`A(X) -> B(X).`, `B(X) -> C(X).`},
		{`A(X) -> B(X).`, `C(X) -> exists Y. R(X,Y).`},
	} {
		p := testPool(1)
		if _, err := addSrc(t, p, srcs[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := addSrc(t, p, srcs[1]); !errors.Is(err, budget.ErrRuleLimit) {
			t.Errorf("%v: err = %v, want ErrRuleLimit", srcs, err)
		}
	}
	// A resumed closure is capped on its total size; the partial run
	// returns the typed error and leaves the base untouched.
	base := mustExtend(t, nil, exampleSeven, Options{})
	before := dump(base)
	dat, cl, st, err := Extend(base, parser.MustParseTheory(exampleSeven+`D(X) -> exists Y. R(Y,X).`),
		Options{Budget: &budget.T{MaxRules: len(base.p.rules)}})
	if !errors.Is(err, budget.ErrRuleLimit) {
		t.Fatalf("resumed err = %v, want ErrRuleLimit", err)
	}
	if dat == nil || st == nil || cl != nil || !st.Resumed {
		t.Fatalf("partial resumed run: dat %v stats %+v closure %v", dat, st, cl)
	}
	if dump(base) != before {
		t.Fatal("a capped resumed run mutated its base")
	}
}

// Composing A(X) → ∃Y R(X,Y) with R(X,Y) → S(Y) extends the head in
// place to R(X,Y) ∧ S(Y), so R(X,Y), S(Y) → B(X) then fires: A(X) → B(X).
func TestCompositionKeepsNullLinkage(t *testing.T) {
	dat, _, err := Datalog(parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y) -> S(Y).
		R(X,Y), S(Y) -> B(X).
	`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasRule(dat, `A(X) -> B(X).`) {
		t.Errorf("A(X) → B(X) not derived:\n%v", dat)
	}
}

// Two existential rules with one body put their nulls apart: the merged
// head R(X,Y) ∧ S(Z) must not satisfy R(X,Y), S(Y) → B(X).
func TestUnrelatedNullsStayApart(t *testing.T) {
	dat, _, err := Datalog(parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		A(X) -> exists Z. S(Z).
		R(X,Y), S(Y) -> B(X).
	`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hasRule(dat, `A(X) -> B(X).`) {
		t.Errorf("unsound A(X) → B(X) derived:\n%v", dat)
	}
}

func hasRule(th *core.Theory, src string) bool {
	want := core.CanonicalKey(parser.MustParseTheory(src).Rules[0])
	for _, r := range th.Rules {
		if core.CanonicalKey(r) == want {
			return true
		}
	}
	return false
}

// The canonical key ignores variable names and atom order.
func TestFullKeyInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		th := randomGuardedTheory(rng)
		p := testPool(100)
		for _, r := range th.Rules {
			body, head, nv := p.fromCore(r)
			want := p.cz.RuleKey(body, head, nv)
			perm := rng.Perm(int(nv))
			shuffle := func(atoms []atom) []atom {
				out := make([]atom, len(atoms))
				for i, j := range rng.Perm(len(atoms)) {
					args := make([]int32, len(atoms[j].Args))
					for k, v := range atoms[j].Args {
						if v >= 0 {
							v = int32(perm[v])
						}
						args[k] = v
					}
					out[i] = atom{Rel: atoms[j].Rel, Args: args}
				}
				return out
			}
			if got := p.cz.RuleKey(shuffle(body), shuffle(head), nv); got != want {
				t.Fatalf("key of %v changed under renaming and reordering", r)
			}
		}
	}
}

func mustExtend(t *testing.T, base *Closure, src string, opts Options) *Closure {
	t.Helper()
	_, cl, _, err := Extend(base, parser.MustParseTheory(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// dump renders every rule of a closure, heads included.
func dump(c *Closure) string {
	s := ""
	for i := range c.p.rules {
		s += c.p.show(int32(i)) + "\n"
	}
	return s
}
