package datalog

import (
	"fmt"
	"math/rand"
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/gen"
	"guardedrules/internal/parser"
)

// diffHarness drives a Maintained handle and a shadow base set through a
// mutation sequence, asserting after every batch that the maintained
// database is byte-identical to a from-scratch evaluation of the shadow
// base, run as `requests` concurrent evaluations (see evalConcurrently).
type diffHarness struct {
	t        *testing.T
	p        *Program
	m        *Maintained
	requests int
	shadow   map[string]core.Atom
}

func newDiffHarness(t *testing.T, thSrc string, base *database.Database, requests int) *diffHarness {
	t.Helper()
	p, err := Compile(parser.MustParseTheory(thSrc))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	m, err := NewMaintained(p, base, Options{})
	if err != nil {
		t.Fatalf("NewMaintained: %v", err)
	}
	h := &diffHarness{t: t, p: p, m: m, requests: requests, shadow: make(map[string]core.Atom)}
	for _, f := range base.UserFacts() {
		h.shadow[factKey(f)] = f
	}
	return h
}

// apply folds one batch into both the handle and the shadow base and
// checks byte-identity against the from-scratch fixpoint.
func (h *diffHarness) apply(add, retract []core.Atom) Delta {
	h.t.Helper()
	_, delta, err := h.m.Apply(add, retract, Options{})
	if err != nil {
		h.t.Fatalf("Apply: %v", err)
	}
	staged := make(map[string]bool)
	for _, f := range retract {
		k := factKey(f)
		if _, ok := h.shadow[k]; ok {
			delete(h.shadow, k)
			staged[k] = true
		}
	}
	for _, f := range add {
		h.shadow[factKey(f)] = f
	}
	h.check()
	return delta
}

func (h *diffHarness) check() {
	h.t.Helper()
	base := database.New()
	for _, k := range sortedKeys(h.shadow) {
		base.Add(h.shadow[k])
	}
	want, err := evalConcurrently(h.t, h.p, base, Options{}, h.requests)
	if err != nil {
		h.t.Fatalf("from-scratch Eval: %v", err)
	}
	if got := h.m.Current().String(); got != want.String() {
		h.t.Fatalf("maintained database diverged from from-scratch fixpoint\nmaintained:\n%s\nfrom-scratch:\n%s", got, want.String())
	}
}

const tcTheory = `E(X,Y) -> T(X,Y).
	T(X,Y), T(Y,Z) -> T(X,Z).`

// absTheory covers the A/B/C/R/S signature of the gen corpora with
// recursion across two strata and stratified negation on top.
const absTheory = `R(X,Y) -> P(X,Y).
	P(X,Y), R(Y,Z) -> P(X,Z).
	A(X) -> D(X).
	S(X,Y), D(X) -> P(X,Y).
	B(X), not P(X,X) -> Q(X).
	C(X), not Q(X) -> Z(X).`

// acdomTheory reads the maintained domain relation — the shape that
// makes refcount-only ACDom maintenance unsound under deletion — with a
// rule-introduced constant (s) so the cascade also covers constants that
// exist only through derived facts.
const acdomTheory = `ACDom(X) -> Dom(X).
	E(X,Y), Dom(Y) -> Reach(X,Y).
	A(X) -> W(X, s).`

// requestCounts is the row dimension of the differential suites: row
// workers=N checks every version against N concurrent from-scratch
// evaluations over one shared snapshot.
func requestCounts() []int { return []int{1, 4} }

func TestIncrementalInsertResume(t *testing.T) {
	for _, w := range requestCounts() {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			h := newDiffHarness(t, tcTheory, gen.Path(12), w)
			// Append an edge: the closure grows along the path.
			h.apply(parser.MustParseFacts(`E(v11, w0).`), nil)
			// Close the cycle back to the start.
			h.apply(parser.MustParseFacts(`E(w0, v0).`), nil)
			// A disconnected island, then a bridge to it.
			h.apply(parser.MustParseFacts(`E(i0, i1). E(i1, i2).`), nil)
			h.apply(parser.MustParseFacts(`E(v5, i0).`), nil)
		})
	}
}

func TestIncrementalRetractDRed(t *testing.T) {
	for _, w := range requestCounts() {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			h := newDiffHarness(t, tcTheory, gen.Path(10), w)
			// Cut the path in the middle: the closure across the cut dies.
			h.apply(nil, parser.MustParseFacts(`E(v4, v5).`))
			// Reconnect differently, then remove an endpoint edge.
			h.apply(parser.MustParseFacts(`E(v4, v7).`), parser.MustParseFacts(`E(v8, v9).`))
			// Mixed batch touching both sides of the earlier cut.
			h.apply(parser.MustParseFacts(`E(v9, v0).`), parser.MustParseFacts(`E(v0, v1). E(v4, v7).`))
		})
	}
}

// TestIncrementalDiamondRetract pins the DRed over-deletion trap of the
// issue: retracting a base fact that is independently derivable must not
// lose the derived copy.
func TestIncrementalDiamondRetract(t *testing.T) {
	const diamond = `Src(X) -> L(X).
		Src(X) -> Rt(X).
		L(X) -> T(X).
		Rt(X) -> T(X).`
	for _, w := range requestCounts() {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			base := database.FromAtoms(parser.MustParseFacts(`Src(a). T(a). L(b).`))
			h := newDiffHarness(t, diamond, base, w)
			// T(a) is a base fact AND derivable via both diamond arms:
			// retracting the base copy must keep the derived one.
			h.apply(nil, parser.MustParseFacts(`T(a).`))
			if !h.m.Current().Has(parser.MustParseFacts(`T(a).`)[0]) {
				t.Fatal("retracting base T(a) lost the independently derived copy")
			}
			// Killing Src(a) removes both arms; now T(a) must die.
			h.apply(nil, parser.MustParseFacts(`Src(a).`))
			if h.m.Current().Has(parser.MustParseFacts(`T(a).`)[0]) {
				t.Fatal("T(a) survived with no derivation and no base copy")
			}
		})
	}
}

// TestIncrementalACDomSurvives pins the ACDom half of the diamond trap:
// a constant that stays alive via a different fact keeps its ACDom fact
// when one supporting occurrence is retracted, and loses it only when
// the last one dies.
func TestIncrementalACDomSurvives(t *testing.T) {
	const th = `ACDom(X), Mark(X) -> Active(X).`
	base := database.FromAtoms(parser.MustParseFacts(`R(a, b). S(b). Mark(b).`))
	h := newDiffHarness(t, th, base, 1)
	acB := core.NewAtom(core.ACDom, core.Const("b"))
	h.apply(nil, parser.MustParseFacts(`R(a, b).`))
	if !h.m.Current().Has(acB) {
		t.Fatal("ACDom(b) died while S(b) still supports b")
	}
	h.apply(nil, parser.MustParseFacts(`S(b).`))
	if !h.m.Current().Has(acB) {
		t.Fatal("ACDom(b) died while Mark(b) still supports b")
	}
	d := h.apply(nil, parser.MustParseFacts(`Mark(b).`))
	if h.m.Current().Has(acB) {
		t.Fatal("ACDom(b) survived the death of its last supporting fact")
	}
	found := false
	for _, a := range d.Removed {
		if a.Relation == core.ACDom {
			found = true
		}
	}
	if !found {
		t.Fatalf("delta.Removed %v does not report the ACDom death", d.Removed)
	}
}

// TestIncrementalNegation exercises block (an added fact falsifies a
// previously satisfied negated literal) and unblock (a deletion
// re-enables a blocked firing) across strata.
func TestIncrementalNegation(t *testing.T) {
	const th = `E(X,Y) -> R(X,Y).
		R(X,Y), R(Y,Z) -> R(X,Z).
		Node(X), not R(X,X) -> Acyclic(X).
		Node(X), not Acyclic(X) -> Cyclic(X).`
	for _, w := range requestCounts() {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			base := database.FromAtoms(parser.MustParseFacts(`Node(a). Node(b). Node(c). E(a, b). E(b, a).`))
			h := newDiffHarness(t, th, base, w)
			// Block: closing c onto itself kills Acyclic(c), derives Cyclic(c).
			h.apply(parser.MustParseFacts(`E(c, c).`), nil)
			// Unblock: breaking the a↔b cycle revives Acyclic(a)/Acyclic(b).
			h.apply(nil, parser.MustParseFacts(`E(b, a).`))
			// Mixed batch: re-close one cycle, open another.
			h.apply(parser.MustParseFacts(`E(b, a).`), parser.MustParseFacts(`E(c, c).`))
		})
	}
}

// TestIncrementalDifferentialRandom runs randomized mutation sequences
// over the gen corpora — including AdversarialNames, whose constant
// names embed NUL bytes and separator characters — and checks
// byte-identity against from-scratch recomputation after every batch.
func TestIncrementalDifferentialRandom(t *testing.T) {
	corpora := []struct {
		name string
		db   *database.Database
	}{
		{"Path", gen.Path(10)},
		{"RandomGraph", gen.RandomGraph(8, 20, 11)},
		{"ABDatabase", gen.ABDatabase(18, 5)},
		{"AdversarialNames", gen.AdversarialNames(18, 7)},
	}
	theories := []struct {
		name string
		src  string
	}{
		{"tc", tcTheory},
		{"abs", absTheory},
		{"acdom", acdomTheory},
	}
	for _, th := range theories {
		for _, c := range corpora {
			for _, w := range requestCounts() {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", th.name, c.name, w), func(t *testing.T) {
					rng := rand.New(rand.NewSource(42))
					h := newDiffHarness(t, th.src, c.db, w)
					universe := append([]core.Atom(nil), c.db.UserFacts()...)
					// Extra candidate facts recombine the corpus constants.
					consts := c.db.Constants()
					if len(consts) > 1 {
						for i := 0; i < 8; i++ {
							x := consts[rng.Intn(len(consts))]
							y := consts[rng.Intn(len(consts))]
							universe = append(universe,
								core.NewAtom("E", x, y),
								core.NewAtom("R", x, y),
								core.NewAtom("A", x))
						}
					}
					for step := 0; step < 8; step++ {
						var add, del []core.Atom
						for i := 0; i < 1+rng.Intn(3); i++ {
							add = append(add, universe[rng.Intn(len(universe))])
						}
						for i := 0; i < rng.Intn(3); i++ {
							del = append(del, universe[rng.Intn(len(universe))])
						}
						h.apply(add, del)
					}
				})
			}
		}
	}
}

// TestIncrementalFailAtSweep drives one mixed batch through every
// checkpoint-injected failure point: each failing Apply must leave the
// handle at exactly the pre-batch materialization, and the eventual
// clean Apply must land on the from-scratch fixpoint.
func TestIncrementalFailAtSweep(t *testing.T) {
	add := parser.MustParseFacts(`E(v9, x0). E(x0, v0).`)
	del := parser.MustParseFacts(`E(v3, v4). E(v7, v8).`)
	for _, w := range requestCounts() {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			h := newDiffHarness(t, tcTheory, gen.Path(10), w)
			before := h.m.Current().String()
			beforeDB := h.m.Current()
			completed := false
			for fail := 1; fail <= 200; fail++ {
				opts := Options{Budget: budget.FailAt(fail)}
				_, _, err := h.m.Apply(add, del, opts)
				if err == nil {
					completed = true
					break
				}
				if !budget.IsBudget(err) {
					t.Fatalf("FailAt(%d): unexpected error kind: %v", fail, err)
				}
				if h.m.Current() != beforeDB {
					t.Fatalf("FailAt(%d): failed Apply swapped the materialization", fail)
				}
				if got := h.m.Current().String(); got != before {
					t.Fatalf("FailAt(%d): failed Apply mutated the pre-batch version", fail)
				}
			}
			if !completed {
				t.Fatal("batch never completed within 200 checkpoints")
			}
			// The successful injected run must equal the clean fixpoint.
			for _, f := range del {
				delete(h.shadow, factKey(f))
			}
			for _, f := range add {
				h.shadow[factKey(f)] = f
			}
			h.check()
		})
	}
}

// TestIncrementalBatchSemantics pins the staging rules: retract of an
// absent fact and add of a present fact are no-ops, retract-then-add of
// the same fact in one batch cancels.
func TestIncrementalBatchSemantics(t *testing.T) {
	h := newDiffHarness(t, tcTheory, gen.Path(5), 1)
	e01 := parser.MustParseFacts(`E(v0, v1).`)
	// Retract + add the same base fact: net no-op.
	if d := h.apply(e01, e01); len(d.Added) != 0 || len(d.Removed) != 0 {
		t.Fatalf("cancel batch produced delta %+v", d)
	}
	// Add a present fact, retract an absent one: both ignored.
	if d := h.apply(e01, parser.MustParseFacts(`E(z, z).`)); len(d.Added) != 0 || len(d.Removed) != 0 {
		t.Fatalf("no-op batch produced delta %+v", d)
	}
	// Empty batch returns the same database.
	dbBefore := h.m.Current()
	res, _, err := h.m.Apply(nil, nil, Options{})
	if err != nil || res != dbBefore {
		t.Fatalf("empty batch: res=%p want %p err=%v", res, dbBefore, err)
	}
	// Non-ground facts are rejected with the typed error.
	if _, _, err := h.m.Apply([]core.Atom{core.NewAtom("E", core.Var("X"), core.Const("a"))}, nil, Options{}); err == nil {
		t.Fatal("non-ground add accepted")
	}
}

// TestIncrementalDeltaReported checks the net delta of a batch: facts
// deleted and rederived do not surface, genuine changes do, and both
// sides are sorted deterministically.
func TestIncrementalDeltaReported(t *testing.T) {
	h := newDiffHarness(t, tcTheory, gen.Path(4), 1)
	d := h.apply(parser.MustParseFacts(`E(v3, v0).`), nil)
	if len(d.Removed) != 0 {
		t.Fatalf("pure insertion reported removals: %v", d.Removed)
	}
	// Closing the cycle derives T pairs in both directions plus E(v3,v0).
	if len(d.Added) == 0 {
		t.Fatal("insertion reported an empty added delta")
	}
	d = h.apply(nil, parser.MustParseFacts(`E(v3, v0).`))
	if len(d.Added) != 0 {
		t.Fatalf("pure retraction reported additions: %v", d.Added)
	}
	if len(d.Removed) == 0 {
		t.Fatal("retraction reported an empty removed delta")
	}
}

// A batch plans only the items its facts reach: adding or retracting a
// fact of a relation no rule reads plans no join in any DRed phase.
func TestApplyPlansOnlyReachedItems(t *testing.T) {
	p, err := Compile(parser.MustParseTheory(tcTheory))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintained(p, gen.Path(10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	z := parser.MustParseFacts(`Z(q).`)
	for _, batch := range []struct {
		name        string
		add, remove []core.Atom
	}{{"add", z, nil}, {"retract", nil, z}} {
		var js JoinStats
		if _, _, err := m.Apply(batch.add, batch.remove, Options{Stats: &js}); err != nil {
			t.Fatal(err)
		}
		if n := js.RoundPlans.Load(); n != 0 {
			t.Errorf("%s Z(q): %d join plans, want none", batch.name, n)
		}
	}
}

// One instantiation of a stratum's items serves every DRed phase, over
// the pre-batch fixpoint and over the clone of it that the batch writes.
// Here the clone's first insertion join comes at the fact count of the
// over-deletion joins over the pre-batch fixpoint: retracting E(b,c)
// takes T(b,c), T(a,c) and ACDom(c) with it, and E(c,z), F(a) bring
// four facts back. Meanwhile a copy-on-write delete replaced T in the
// clone. An item that re-resolved its relation handles on a fact count
// would join E(c,z) against the pre-batch T and derive T(a,z).
func TestApplyReresolvesReplacedRelations(t *testing.T) {
	p, err := Compile(parser.MustParseTheory(`E(X,Y) -> T(X,Y).
		T(X,Y), E(Y,Z) -> T(X,Z).`))
	if err != nil {
		t.Fatal(err)
	}
	base := database.FromAtoms(parser.MustParseFacts(`E(a,b). E(b,c).`))
	m, err := NewMaintained(p, base.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Current()
	before, n := snap.String(), snap.Len()
	got, _, err := m.Apply(parser.MustParseFacts(`E(c,z). F(a).`), parser.MustParseFacts(`E(b,c).`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Eval(database.FromAtoms(parser.MustParseFacts(`E(a,b). E(c,z). F(a).`)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("maintained fixpoint\n%s\nwant the recomputed\n%s", got, want)
	}
	if snap.String() != before || snap.Len() != n {
		t.Errorf("Apply changed the pre-batch snapshot:\n%s\nwas\n%s", snap, before)
	}
}
