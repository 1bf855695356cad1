package capture

import (
	"testing"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/tm"
)

func TestEncodeExtractRoundTrip(t *testing.T) {
	alpha := []string{"zero", "one"}
	for _, word := range [][]string{
		{"one"},
		{"zero", "one"},
		{"one", "one", "zero"},
		{"zero", "zero", "zero", "one"},
	} {
		db, err := Encode(word, 1, alpha)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExtractWord(db, 1, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(word) {
			t.Fatalf("length: %v vs %v", got, word)
		}
		for i := range word {
			if got[i] != word[i] {
				t.Errorf("word[%d]: got %s want %s", i, got[i], word[i])
			}
		}
	}
}

func TestEncodeDegreeTwo(t *testing.T) {
	alpha := []string{"zero", "one"}
	word := []string{"one", "zero", "zero", "one"} // d=2, k=2
	db, err := Encode(word, 2, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Constants()) != 2 {
		t.Errorf("domain size: %v", db.Constants())
	}
	got, err := ExtractWord(db, 2, alpha)
	if err != nil {
		t.Fatal(err)
	}
	for i := range word {
		if got[i] != word[i] {
			t.Errorf("word[%d]: got %s want %s", i, got[i], word[i])
		}
	}
	// Length 3 is not a square: must be rejected.
	if _, err := Encode([]string{"one", "one", "one"}, 2, alpha); err == nil {
		t.Error("non-power length must be rejected")
	}
}

func TestExtractRejectsBrokenStringDB(t *testing.T) {
	alpha := []string{"zero", "one"}
	db, _ := Encode([]string{"one", "zero"}, 1, alpha)
	// Add a second symbol on a tuple: ambiguous.
	db.Add(core.NewAtom("zero", core.Const(ConstName(0))))
	if _, err := ExtractWord(db, 1, alpha); err == nil {
		t.Error("ambiguous symbol must be rejected")
	}
}

func TestCompiledTheoryIsWeaklyGuarded(t *testing.T) {
	for _, m := range []*tm.ATM{
		tm.EvenLength([]string{"zero", "one"}),
		tm.AllSymbols("one", []string{"zero", "one"}),
		tm.SomeSymbol("one", []string{"zero", "one"}),
	} {
		th, err := Compile(m, 1, []string{"zero", "one"})
		if err != nil {
			t.Fatal(err)
		}
		rep := classify.Classify(th)
		if !rep.Member[classify.WeaklyGuarded] {
			t.Errorf("Σ_%s must be weakly guarded (offender %v)", m.Name, rep.Offender[classify.WeaklyGuarded])
		}
	}
}

// runCompiled chases the compiled theory on the encoded word and reports
// whether Accepts() is derived.
func runCompiled(t *testing.T, th *core.Theory, word []string, alpha []string, k int) bool {
	t.Helper()
	db, err := Encode(word, k, alpha)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chase.Run(th, db, chase.Options{
		Variant:  chase.Restricted,
		MaxDepth: 3*len(word) + 6,
		Budget:   &budget.T{MaxFacts: 500_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Entails(core.NewAtom(AcceptRel))
}

// Theorem 4 on concrete machines: the compiled weakly guarded theory
// agrees with the direct ATM simulation on every word.
func TestTheoremFourAgainstSimulator(t *testing.T) {
	alpha := []string{"zero", "one"}
	machines := []*tm.ATM{
		tm.EvenLength(alpha),
		tm.EvenCount("one", alpha),
		tm.SomeSymbol("one", alpha),
		tm.AllSymbols("one", alpha),
	}
	var wordsUpTo func(n int) [][]string
	wordsUpTo = func(n int) [][]string {
		if n == 0 {
			return [][]string{{}}
		}
		var out [][]string
		for _, w := range wordsUpTo(n - 1) {
			out = append(out, append(append([]string(nil), w...), "zero"))
			out = append(out, append(append([]string(nil), w...), "one"))
		}
		return out
	}
	for _, m := range machines {
		th, err := Compile(m, 1, alpha)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 4; n++ {
			for _, w := range wordsUpTo(n) {
				sim, err := m.Accepts(w, 0)
				if err != nil {
					t.Fatal(err)
				}
				got := runCompiled(t, th, w, alpha, 1)
				if got != sim.Accepted {
					t.Errorf("%s on %v: compiled=%v simulator=%v", m.Name, w, got, sim.Accepted)
				}
			}
		}
	}
}

// Theorem 4 at degree k=2: positions are pairs of constants.
func TestTheoremFourDegreeTwo(t *testing.T) {
	alpha := []string{"zero", "one"}
	m := tm.EvenCount("one", alpha)
	th, err := Compile(m, 2, alpha)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][]string{
		{"one", "zero", "zero", "one"},
		{"one", "zero", "zero", "zero"},
	} {
		sim, err := m.Accepts(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := runCompiled(t, th, w, alpha, 2); got != sim.Accepted {
			t.Errorf("k=2 %v: compiled=%v simulator=%v", w, got, sim.Accepted)
		}
	}
}

// Leftward head movement in compiled theories (Theorem 4 with a machine
// that walks to the end and steps back).
func TestTheoremFourLeftMoves(t *testing.T) {
	alpha := []string{"zero", "one"}
	m := tm.PenultimateIs("one", alpha)
	th, err := Compile(m, 1, alpha)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][]string{
		{"one", "zero"},
		{"zero", "one"},
		{"zero", "one", "zero"},
		{"one", "zero", "zero"},
		{"one"},
	} {
		sim, err := m.Accepts(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := runCompiled(t, th, w, alpha, 1); got != sim.Accepted {
			t.Errorf("%v: compiled=%v simulator=%v", w, got, sim.Accepted)
		}
	}
}
