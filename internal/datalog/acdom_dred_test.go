package datalog

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/parser"
)

// TestDRedACDomSelfSupport pins the counting trap of refcount-maintained
// ACDom under DRed: with `ACDom(X) -> R(X).` the derived R(c) supports
// its own ACDom(c) guard, so retracting the last real base fact must not
// leave the pair alive on mutual support. From scratch, the empty base
// derives nothing.
func TestDRedACDomSelfSupport(t *testing.T) {
	const th = `ACDom(X) -> R(X).`
	for _, w := range requestCounts() {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			base := database.FromAtoms(parser.MustParseFacts(`B(c).`))
			h := newDiffHarness(t, th, base, w)
			h.apply(nil, parser.MustParseFacts(`B(c).`))
			if got := h.m.Current().Len(); got != 0 {
				t.Fatalf("maintained db after retracting the only base fact has %d facts, want 0:\n%s",
					got, h.m.Current().String())
			}
		})
	}
}

// TestDRedACDomSelfSupportDiamond is the diamond variant: the constant
// stays alive via an independent base fact, so the self-supporting
// derivation must survive the first retraction and die with the second.
func TestDRedACDomSelfSupportDiamond(t *testing.T) {
	const th = `ACDom(X) -> R(X).`
	base := database.FromAtoms(parser.MustParseFacts(`B(c). D(c).`))
	h := newDiffHarness(t, th, base, 1)
	rc := core.NewAtom("R", core.Const("c"))
	h.apply(nil, parser.MustParseFacts(`B(c).`))
	if !h.m.Current().Has(rc) {
		t.Fatal("R(c) died while D(c) still supports ACDom(c)")
	}
	h.apply(nil, parser.MustParseFacts(`D(c).`))
	if h.m.Current().Has(rc) {
		t.Fatal("R(c) survived on pure self-support")
	}
}

// TestDRedACDomIntroducedConstant exercises the cascade through a
// rule-introduced constant: d enters the domain only through derived
// F facts, and Seen(d) must track exactly the survival of some F(_,d).
func TestDRedACDomIntroducedConstant(t *testing.T) {
	const th = `B(X) -> F(X, d).
		ACDom(Y) -> Seen(Y).`
	for _, w := range requestCounts() {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			base := database.FromAtoms(parser.MustParseFacts(`B(c). B(e).`))
			h := newDiffHarness(t, th, base, w)
			seenD := core.NewAtom("Seen", core.Const("d"))
			h.apply(nil, parser.MustParseFacts(`B(c).`))
			if !h.m.Current().Has(seenD) {
				t.Fatal("Seen(d) died while F(e,d) still derives it")
			}
			h.apply(nil, parser.MustParseFacts(`B(e).`))
			if got := h.m.Current().Len(); got != 0 {
				t.Fatalf("maintained db after retracting every base fact has %d facts, want 0:\n%s",
					got, h.m.Current().String())
			}
		})
	}
}

// TestDRedACDomCrossStratum drives the cross-stratum doom case: the
// stratum-0 reader rule must not resurrect R0(c) on the strength of
// higher-stratum supports (P, Q) that are themselves doomed once the
// base fact dies.
func TestDRedACDomCrossStratum(t *testing.T) {
	const th = `ACDom(X) -> R0(X).
		B(X), not N(X) -> P(X).
		P(X) -> Q(X).`
	for _, w := range requestCounts() {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			base := database.FromAtoms(parser.MustParseFacts(`B(c).`))
			h := newDiffHarness(t, th, base, w)
			h.apply(nil, parser.MustParseFacts(`B(c).`))
			if got := h.m.Current().Len(); got != 0 {
				t.Fatalf("maintained db after retracting the only base fact has %d facts, want 0:\n%s",
					got, h.m.Current().String())
			}
			// Re-adding the base fact rebuilds the whole tower.
			h.apply(parser.MustParseFacts(`B(c).`), nil)
			for _, rel := range []string{"R0", "P", "Q"} {
				if !h.m.Current().Has(core.NewAtom(rel, core.Const("c"))) {
					t.Fatalf("%s(c) missing after re-adding B(c)", rel)
				}
			}
		})
	}
}

// TestDRedACDomRegressionSubscribeShape mirrors the repo's subscription
// regression theory (`ACDom(Y) -> Seen(Y).`) over a mixed batch,
// including a retract+add in one batch that must leave the fixpoint
// exactly at the from-scratch result of the new base.
func TestDRedACDomRegressionSubscribeShape(t *testing.T) {
	const th = `ACDom(Y) -> Seen(Y).
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).`
	for _, w := range requestCounts() {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			base := database.FromAtoms(parser.MustParseFacts(`E(a, b). E(b, c).`))
			h := newDiffHarness(t, th, base, w)
			h.apply(nil, parser.MustParseFacts(`E(b, c).`))
			h.apply(parser.MustParseFacts(`E(b, d).`), parser.MustParseFacts(`E(a, b).`))
			h.apply(nil, parser.MustParseFacts(`E(b, d).`))
			if got := h.m.Current().Len(); got != 0 {
				t.Fatalf("empty base left %d facts:\n%s", got, h.m.Current().String())
			}
		})
	}
}

// TestDRedACDomFailAtSweep drives the self-support cascade through every
// injected checkpoint failure: a failing Apply must leave the handle at
// the pre-batch materialization, and the eventual clean run must land on
// the from-scratch fixpoint.
func TestDRedACDomFailAtSweep(t *testing.T) {
	const th = `B(X) -> F(X, d).
		ACDom(Y) -> Seen(Y).`
	del := parser.MustParseFacts(`B(c).`)
	add := parser.MustParseFacts(`B(g).`)
	h := newDiffHarness(t, th, database.FromAtoms(parser.MustParseFacts(`B(c). B(e).`)), 1)
	before := h.m.Current().String()
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
		if got := h.m.Current().String(); got != before {
			t.Fatalf("FailAt(%d): failed Apply mutated the pre-batch version", fail)
		}
	}
	if !completed {
		t.Fatal("batch never completed within 200 checkpoints")
	}
	for _, f := range del {
		delete(h.shadow, factKey(f))
	}
	for _, f := range add {
		h.shadow[factKey(f)] = f
	}
	h.check()
}

// domString renders the ACDom facts of d, sorted: Database.String omits
// them, but they decide what later retractions leave alive.
func domString(d *database.Database) string {
	var lines []string
	for _, f := range d.Facts(core.RelKey{Name: core.ACDom, Arity: 1}) {
		lines = append(lines, f.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, " ")
}

// runAgainstEval applies each batch (add, retract in fact syntax) to a
// handle over base and to a plain copy of base through Database.Retract
// then Database.Add, and requires after every batch that the handle
// equals p.Eval of that copy: same String and same ACDom facts.
func runAgainstEval(t *testing.T, th string, base *database.Database, batches [][2]string) {
	t.Helper()
	p, err := Compile(parser.MustParseTheory(th))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintained(p, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shadow := base.Clone()
	for i, b := range batches {
		add, del := parser.MustParseFacts(b[0]), parser.MustParseFacts(b[1])
		if _, _, err := m.Apply(add, del, Options{}); err != nil {
			t.Fatalf("batch %d: Apply: %v", i, err)
		}
		for _, f := range del {
			shadow.Retract(f)
		}
		for _, f := range add {
			shadow.Add(f)
		}
		want, err := p.Eval(shadow, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := m.Current()
		if got.String() != want.String() || domString(got) != domString(want) {
			t.Fatalf("batch %d (add %q, retract %q): maintained diverged from Eval of the base\nmaintained:\n%s\n%s\nEval:\n%s\n%s",
				i, b[0], b[1], got.String(), domString(got), want.String(), domString(want))
		}
	}
}

// An ACDom fact that arrived through Apply is a base fact like any
// other: retracting it takes its consequences along, even though the
// derived Dom(d) supports ACDom(d) circularly.
func TestDRedACDomRetractApplied(t *testing.T) {
	runAgainstEval(t, `ACDom(X) -> Dom(X).`, database.FromAtoms(parser.MustParseFacts(`S(a).`)), [][2]string{
		{`ACDom(d).`, ``},
		{``, `ACDom(d).`},
	})
}

// An explicit ACDom fact of the base is pinned in the maintained
// fixpoint too, also when the fixpoint already derived it: it outlives
// its derived supports, and unpinning it lets them go.
func TestDRedACDomPinnedBaseFact(t *testing.T) {
	runAgainstEval(t, `A(X) -> S(c).`, database.FromAtoms(parser.MustParseFacts(`A(a).`)), [][2]string{
		{`ACDom(c).`, ``},
		{``, `A(a).`},
		{`A(a).`, `ACDom(c).`},
		{``, `A(a).`},
	})
	runAgainstEval(t, `ACDom(X) -> Dom(X).`, database.FromAtoms(parser.MustParseFacts(`S(a).`)), [][2]string{
		{`ACDom(c).`, ``},
		{`R(c).`, ``},
		{``, `ACDom(c).`},
		{``, `R(c).`},
		{`ACDom(c). R(c).`, `ACDom(c).`},
	})
}

// Random batches over acdomTheory mix user facts with explicit ACDom
// facts, including ones the fixpoint derives on its own.
func TestDRedACDomRandomExplicit(t *testing.T) {
	consts := []string{"a", "b", "c", "s"}
	var universe []string
	for _, x := range consts {
		universe = append(universe, "ACDom("+x+").", "A("+x+").")
		for _, y := range consts {
			universe = append(universe, "E("+x+","+y+").")
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pick := func() string {
				var b strings.Builder
				for i := rng.Intn(3); i > 0; i-- {
					b.WriteString(universe[rng.Intn(len(universe))])
				}
				return b.String()
			}
			var batches [][2]string
			for i := 0; i < 60; i++ {
				batches = append(batches, [2]string{pick(), pick()})
			}
			runAgainstEval(t, acdomTheory, database.FromAtoms(parser.MustParseFacts(`E(a,b). A(c).`)), batches)
		})
	}
}
