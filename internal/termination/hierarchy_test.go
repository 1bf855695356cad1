package termination

import (
	"strings"
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/database"
	"guardedrules/internal/gen"
	"guardedrules/internal/parser"
)

// The canonical separating examples of the hierarchy.
const (
	jaNotWASrc = `
		A(X) -> exists V. R(X,V).
		R(X,Y), B(Y) -> A(Y).
	`
	swaNotJASrc = `
		A(X) -> exists V. R(X,V).
		R(X,Y) -> R(Y,X).
		R(X,X) -> A(X).
	`
	unknownSrc = `
		Person(X) -> exists Y. hasParent(X,Y).
		hasParent(X,Y) -> Person(Y).
	`
)

func TestClassWAWithBound(t *testing.T) {
	th := parser.MustParseTheory(`
		Publication(X) -> exists K1,K2. Keywords(X,K1,K2).
		Keywords(X,K1,K2) -> hasTopic(X,K1).
	`)
	rep := Analyze(th)
	if rep.Class != ClassWA {
		t.Fatalf("class = %v, want wa", rep.Class)
	}
	if !rep.JointlyAcyclic || rep.Critical != nil {
		t.Errorf("WA must imply JA and skip the critical layer (ja=%v critical=%v)", rep.JointlyAcyclic, rep.Critical)
	}
	if rep.Certificate == nil || rep.Bound == nil {
		t.Fatal("WA verdict must carry a certificate and a bound")
	}
	if err := rep.Certificate.Verify(th); err != nil {
		t.Fatalf("certificate must verify: %v", err)
	}
	d := database.FromAtoms(parser.MustParseFacts(`Publication(p1). Publication(p2).`))
	n0 := d.InternEpoch() + len(th.Constants())
	bound, ok := rep.Bound.Facts(n0, d.Len())
	if !ok {
		t.Fatal("bound must be computable for a small database")
	}
	res, err := chase.RunCertified(th, d, bound, chase.Options{Variant: chase.Restricted})
	if err != nil {
		t.Fatalf("certified run must saturate within the derived bound %d: %v", bound, err)
	}
	if !res.Saturated || res.DB.Len() > bound {
		t.Errorf("saturated=%v len=%d bound=%d", res.Saturated, res.DB.Len(), bound)
	}
}

func TestClassJANotWA(t *testing.T) {
	th := parser.MustParseTheory(jaNotWASrc)
	rep := Analyze(th)
	if rep.WeaklyAcyclic {
		t.Fatal("the B-guarded feedback theory must not be weakly acyclic")
	}
	if rep.Class != ClassJA || !rep.JointlyAcyclic {
		t.Fatalf("class = %v (ja=%v), want ja", rep.Class, rep.JointlyAcyclic)
	}
	if rep.Certificate == nil || len(rep.Certificate.Order) == 0 {
		t.Fatal("JA verdict must carry a topological-order certificate")
	}
	if err := rep.Certificate.Verify(th); err != nil {
		t.Fatalf("certificate must verify: %v", err)
	}
	// The restricted chase indeed terminates, with no fact ceiling.
	d := database.FromAtoms(parser.MustParseFacts(`A(a). B(b). R(a,b).`))
	res, err := chase.RunCertified(th, d, 0, chase.Options{Variant: chase.Restricted})
	if err != nil || !res.Saturated {
		t.Fatalf("restricted chase of a JA theory must saturate: %v", err)
	}
}

func TestClassSWANotJA(t *testing.T) {
	th := parser.MustParseTheory(swaNotJASrc)
	rep := Analyze(th)
	if rep.WeaklyAcyclic || rep.JointlyAcyclic {
		t.Fatalf("the swap/diagonal theory must fail WA and JA (wa=%v ja=%v)", rep.WeaklyAcyclic, rep.JointlyAcyclic)
	}
	if len(rep.JACycle) < 2 {
		t.Fatalf("JA rejection must carry a dependency cycle, got %v", rep.JACycle)
	}
	if rep.JACycle[0] != rep.JACycle[len(rep.JACycle)-1] {
		t.Errorf("JA cycle must repeat its first element last: %v", rep.JACycle)
	}
	if rep.Class != ClassSWA {
		t.Fatalf("class = %v, want swa (critical: %+v)", rep.Class, rep.Critical)
	}
	if rep.Critical == nil || !rep.Critical.Terminates {
		t.Fatalf("critical report must record saturation: %+v", rep.Critical)
	}
	if err := rep.Certificate.Verify(th); err != nil {
		t.Fatalf("certificate must verify: %v", err)
	}
	// A critical-instance certificate covers the oblivious variant too.
	d := database.FromAtoms(parser.MustParseFacts(`A(a). R(b,c).`))
	res, err := chase.RunCertified(th, d, 0, chase.Options{Variant: chase.Oblivious})
	if err != nil || !res.Saturated {
		t.Fatalf("oblivious chase of a critical-certified theory must saturate: %v", err)
	}
}

func TestClassUnknownWithLineageCycle(t *testing.T) {
	th := parser.MustParseTheory(unknownSrc)
	rep := Analyze(th)
	if rep.Class != ClassUnknown || rep.Certificate != nil {
		t.Fatalf("class = %v, want unknown without certificate", rep.Class)
	}
	if rep.Critical == nil || rep.Critical.Terminates {
		t.Fatalf("critical layer must have run and rejected: %+v", rep.Critical)
	}
	cyc := rep.Critical.LineageCycle
	if len(cyc) < 2 || cyc[0] != cyc[len(cyc)-1] {
		t.Fatalf("lineage cycle must close on its origin: %v", cyc)
	}
	if len(rep.Critical.CycleNulls) != len(cyc) {
		t.Errorf("cycle nulls must parallel the origin chain: %v vs %v", rep.Critical.CycleNulls, cyc)
	}
}

func TestCriticalInstanceShape(t *testing.T) {
	th := parser.MustParseTheory(`R(X,Y), S(Y) -> exists Z. R(Y,Z). Q(X) -> S(X).`)
	d := CriticalInstance(th)
	star := "*"
	for _, rel := range []string{"R", "S", "Q"} {
		found := false
		for _, a := range d.UserFacts() {
			if a.Relation == rel {
				found = true
				for _, arg := range a.Args {
					if arg.Name != star {
						t.Errorf("%s critical fact must be all-star, got %v", rel, a)
					}
				}
			}
		}
		if !found {
			t.Errorf("critical instance misses relation %s", rel)
		}
	}
}

func TestCertificateTamperingDetected(t *testing.T) {
	waTh := parser.MustParseTheory(`A(X) -> exists V. R(X,V).`)
	waCert := Analyze(waTh).Certificate
	if err := waCert.Verify(waTh); err != nil {
		t.Fatalf("genuine wa certificate must verify: %v", err)
	}
	tampered := *waCert
	tampered.Ranks = append([]PosRank(nil), waCert.Ranks...)
	for i := range tampered.Ranks {
		tampered.Ranks[i].Rank = 0
	}
	if err := tampered.Verify(waTh); err == nil {
		t.Error("flattened ranks must fail verification")
	}
	// A wa certificate for a non-WA theory must be rejected.
	if err := waCert.Verify(parser.MustParseTheory(unknownSrc)); err == nil {
		t.Error("wa certificate must not transfer to the ancestor theory")
	}

	// A theory with a genuine dependency r0.V ⇝ r1.W: the JA order must
	// respect it, and a reversed or truncated order must be rejected.
	depTh := parser.MustParseTheory(`
		A(X) -> exists V. R(X,V).
		R(X,Y) -> exists W. S(Y,W).
	`)
	good := &Certificate{Class: ClassJA.String(), Order: []EVar{{Rule: 0, Var: "V"}, {Rule: 1, Var: "W"}}}
	if err := good.Verify(depTh); err != nil {
		t.Fatalf("dependency-respecting order must verify: %v", err)
	}
	rev := &Certificate{Class: ClassJA.String(), Order: []EVar{{Rule: 1, Var: "W"}, {Rule: 0, Var: "V"}}}
	if err := rev.Verify(depTh); err == nil {
		t.Error("reversed topological order must fail")
	}
	missing := &Certificate{Class: ClassJA.String()}
	if err := missing.Verify(depTh); err == nil {
		t.Error("empty order must fail verification")
	}

	swaTh := parser.MustParseTheory(swaNotJASrc)
	swaCert := Analyze(swaTh).Certificate
	if err := swaCert.Verify(swaTh); err != nil {
		t.Fatalf("genuine swa certificate must verify: %v", err)
	}
	// The same critical snapshot cannot certify a diverging theory.
	if err := swaCert.Verify(parser.MustParseTheory(unknownSrc)); err == nil {
		t.Error("swa certificate must not transfer to the ancestor theory")
	}
}

func TestBoundGrowthAndOverflow(t *testing.T) {
	// The chain theory's max rank grows with n.
	small := Analyze(gen.WAChainTheory(2))
	big := Analyze(gen.WAChainTheory(6))
	if small.Class != ClassWA || big.Class != ClassWA {
		t.Fatalf("chain theories must be WA (%v, %v)", small.Class, big.Class)
	}
	if big.Bound.MaxRank <= small.Bound.MaxRank {
		t.Errorf("rank must grow with chain length: %d vs %d", small.Bound.MaxRank, big.Bound.MaxRank)
	}
	sb, ok := small.Bound.Facts(4, 2)
	if !ok || sb <= 0 {
		t.Fatalf("small bound must be computable, got %d ok=%v", sb, ok)
	}
	// A deep chain over a large domain overflows; that is a fallback
	// signal, not an error.
	deep := Analyze(gen.WAChainTheory(40))
	if _, ok := deep.Bound.Facts(1_000_000, 1_000_000); ok {
		t.Error("a degree-40 bound over a 10^6 domain must overflow the evaluator")
	}
}

func TestBoundIsRealUpperBound(t *testing.T) {
	theories := []string{
		`A(X) -> exists V. R(X,V). R(X,Y) -> S(Y,X). S(X,Y) -> T(X).`,
		`R(X,Y) -> exists V. P2(Y,V). P2(X,Y) -> exists W. P3(Y,W).`,
		`A(X) -> exists V. B(V).`, // empty frontier: fires once
	}
	for ti, src := range theories {
		th := parser.MustParseTheory(src)
		rep := Analyze(th)
		if rep.Class != ClassWA {
			t.Fatalf("theory %d must be WA", ti)
		}
		d := gen.ABDatabase(6, int64(ti))
		n0 := d.InternEpoch() + len(th.Constants())
		bound, ok := rep.Bound.Facts(n0, d.Len())
		if !ok {
			t.Fatalf("theory %d: bound not computable", ti)
		}
		res, err := chase.Run(th, d, chase.Options{Variant: chase.Restricted, MaxFacts: bound + 10})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Saturated {
			t.Fatalf("theory %d: restricted chase must saturate", ti)
		}
		if res.DB.Len() > bound {
			t.Errorf("theory %d: chase reached %d facts, certified bound %d", ti, res.DB.Len(), bound)
		}
	}
}

func TestCriticalBudgetExhaustionIsUnknown(t *testing.T) {
	// Starve the critical chase so neither saturation nor a cycle is
	// reached: the verdict must be unknown/exhausted, never a false
	// certificate.
	th := parser.MustParseTheory(swaNotJASrc)
	rep := AnalyzeOpts(th, Options{CriticalBudget: &budget.T{MaxFacts: 2, MaxSteps: 1}})
	if rep.Class != ClassUnknown {
		t.Fatalf("starved critical check must not certify, got %v", rep.Class)
	}
	if rep.Critical == nil || !rep.Critical.Exhausted {
		t.Fatalf("critical report must record exhaustion: %+v", rep.Critical)
	}
}

func TestSkipCritical(t *testing.T) {
	rep := AnalyzeOpts(parser.MustParseTheory(swaNotJASrc), Options{SkipCritical: true})
	if rep.Critical != nil || rep.Class != ClassUnknown {
		t.Fatalf("SkipCritical must leave the layer unrun (class=%v)", rep.Class)
	}
}

func TestClassStrings(t *testing.T) {
	for c, want := range map[Class]string{ClassWA: "wa", ClassJA: "ja", ClassSWA: "swa", ClassUnknown: "unknown"} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
	if ClassUnknown.Terminating() || !ClassSWA.Terminating() {
		t.Error("Terminating must separate unknown from the certified classes")
	}
	if !strings.Contains(EVar{Rule: 2, Var: "Y"}.String(), "r2.Y") {
		t.Errorf("EVar rendering: %v", EVar{Rule: 2, Var: "Y"})
	}
}
