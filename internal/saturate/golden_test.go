package saturate_test

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/gen"
	"guardedrules/internal/kb"
	"guardedrules/internal/normalize"
	"guardedrules/internal/parser"
	"guardedrules/internal/rewrite"
	"guardedrules/internal/saturate"
)

// goldenPath pins the closure and dat(Σ) sizes of the translation
// corpus. Regenerate with UPDATE_GOLDEN=1 go test -run TestDatCountsGolden
// ./internal/saturate/ — only when a change is meant to shrink them.
const goldenPath = "testdata/dat_counts.golden"

// unpinned marks a golden theory whose translation did not finish within
// goldenTimeout when the file was written; the test then translates it
// under a step budget of unpinnedSteps and accepts either outcome, but a
// finished translation must still agree with the chase.
const (
	unpinned      = -1
	goldenTimeout = 60 * time.Second
	unpinnedSteps = 500_000
)

// fixtureTheories are the four fixture templates that servebench's
// compile_miss workload cycles (copied there from testdata).
var fixtureTheories = []struct{ name, src string }{
	{"fixture/dlsafe", `Node(X) -> exists K. Token(X,K).
Token(X,K) -> Tagged(X).
E(X,Y) -> T(X,Y).
T(X,Y), T(Y,Z) -> T(X,Z).
T(X,Y), Tagged(X), Tagged(Y) -> Connected(X,Y).
`},
	{"fixture/example7", `A(X) -> exists Y. R(X,Y).
R(X,Y) -> S(Y,Y).
S(X,Y) -> exists Z. T(X,Y,Z).
T(X,X,Y) -> B(X).
C(X), R(X,Y), B(Y) -> D(X).
`},
	{"fixture/transitive", `E(X,Y) -> T(X,Y).
T(X,Y), T(Y,Z) -> T(X,Z).
`},
	{"fixture/wguarded", `A(X) -> exists Y. R(Y,X).
R(Y,X), B(Z) -> P(Y,Z).
P(Y,Z), R(Y,X) -> Out(X,Z).
`},
}

type corpusTheory struct {
	name string
	th   *core.Theory
}

// goldenCorpus is every theory whose translation counts are pinned: the
// 13 frontier-guarded compile_miss seeds alone and with the cycle's CQ
// attached, the compile_miss fixtures, and every testdata/*.rules
// theory.
func goldenCorpus(t *testing.T) []corpusTheory {
	t.Helper()
	var out []corpusTheory
	q := kb.CQ{Answer: []core.Term{core.Var("X"), core.Var("Y")},
		Atoms: []core.Atom{core.NewAtom("R", core.Var("X"), core.Var("Y"))}}
	for s := int64(1); s <= 13; s++ {
		th := gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 6, Seed: s})
		out = append(out, corpusTheory{fmt.Sprintf("fg%d", s), th})
		att, err := kb.Attach(th, q)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, corpusTheory{fmt.Sprintf("fg%d+q", s), att})
	}
	for _, f := range fixtureTheories {
		out = append(out, corpusTheory{f.name, parser.MustParseTheory(f.src)})
	}
	files, err := filepath.Glob("../../testdata/*.rules")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		th, err := parser.ParseTheory(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, corpusTheory{"testdata/" + filepath.Base(f), th})
	}
	return out
}

// translate runs the route kbcache takes for a negation-free theory:
// dat(Σ) for nearly guarded theories, dat(rew(Σ)) for nearly
// frontier-guarded ones. ok is false outside those fragments.
func translate(th *core.Theory, bud *budget.T) (dat *core.Theory, st *saturate.Stats, ok bool, err error) {
	if th.HasNegation() {
		return nil, nil, false, nil
	}
	rep := classify.Classify(th)
	switch {
	case rep.Member[classify.NearlyGuarded]:
		dat, st, err = saturate.NearlyGuardedToDatalog(th, saturate.Options{Budget: bud})
	case rep.Member[classify.NearlyFrontierGuarded]:
		ng, _, rerr := rewrite.Rewrite(normalize.Normalize(th), rewrite.Options{})
		if rerr != nil {
			return nil, nil, true, rerr
		}
		dat, st, err = saturate.NearlyGuardedToDatalog(ng, saturate.Options{Budget: bud})
	default:
		return nil, nil, false, nil
	}
	return dat, st, true, err
}

// writeGolden records the current counts. A theory whose translation
// does not finish within goldenTimeout is recorded as "unpinned".
func writeGolden(t *testing.T, corpus []corpusTheory) {
	var b strings.Builder
	b.WriteString("# theory closure=|Ξ(Σ)| dat=|dat(Σ)|; a count may shrink, never grow\n")
	for _, ct := range corpus {
		type result struct {
			st  *saturate.Stats
			ok  bool
			err error
		}
		done := make(chan result, 1)
		go func() {
			_, st, ok, err := translate(ct.th, nil)
			done <- result{st, ok, err}
		}()
		select {
		case r := <-done:
			if r.err != nil {
				t.Fatalf("%s: %v", ct.name, r.err)
			}
			if r.ok {
				fmt.Fprintf(&b, "%s closure=%d dat=%d\n", ct.name, r.st.ClosureRules, r.st.DatalogRules)
			}
		case <-time.After(goldenTimeout):
			fmt.Fprintf(&b, "%s closure=%d dat=%d\n", ct.name, unpinned, unpinned)
		}
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T) map[string][2]int {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string][2]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var c, d int
		if _, err := fmt.Sscanf(line, "%s closure=%d dat=%d", &name, &c, &d); err != nil {
			t.Fatalf("golden line %q: %v", line, err)
		}
		out[name] = [2]int{c, d}
	}
	return out
}

// TestDatCountsGolden pins the translation output sizes: no theory of
// the corpus may grow its closure Ξ(Σ) or its dat(Σ) beyond the pinned
// count, and every dat(Σ) must answer like the chase on seeded DBs.
func TestDatCountsGolden(t *testing.T) {
	corpus := goldenCorpus(t)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		writeGolden(t, corpus)
		return
	}
	golden := readGolden(t)
	seen := 0
	for _, ct := range corpus {
		want, listed := golden[ct.name]
		var bud *budget.T
		if listed && want[0] == unpinned {
			bud = &budget.T{MaxSteps: unpinnedSteps}
		}
		dat, st, ok, err := translate(ct.th, bud)
		if bud != nil && budget.IsBudget(err) {
			seen++
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", ct.name, err)
		}
		if !ok {
			continue
		}
		seen++
		if !listed {
			t.Errorf("%s: translates but has no golden count", ct.name)
			continue
		}
		if want[0] != unpinned && (st.ClosureRules > want[0] || st.DatalogRules > want[1]) {
			t.Errorf("%s: closure=%d dat=%d, golden closure=%d dat=%d (counts may not grow)",
				ct.name, st.ClosureRules, st.DatalogRules, want[0], want[1])
		}
		for seed := int64(1); seed <= 3; seed++ {
			agreeWithChase(t, ct.name, ct.th, dat, seededDB(ct.th, seed))
		}
	}
	if seen != len(golden) {
		t.Errorf("%d theories translate, golden pins %d", seen, len(golden))
	}
}

// seededDB draws a small database over the theory's relations.
func seededDB(th *core.Theory, seed int64) *database.Database {
	rng := rand.New(rand.NewSource(seed))
	var rels []core.RelKey
	for _, rk := range th.Relations() {
		if rk.Name != core.ACDom && rk.Name != kb.QueryRel && rk.AnnArity == 0 {
			rels = append(rels, rk)
		}
	}
	d := database.New()
	if len(rels) == 0 {
		return d
	}
	for i := 0; i < 10; i++ {
		rk := rels[rng.Intn(len(rels))]
		args := make([]core.Term, rk.Arity)
		for j := range args {
			args[j] = core.Const(fmt.Sprintf("d%d", rng.Intn(4)))
		}
		d.Add(core.NewAtom(rk.Name, args...))
	}
	return d
}

// agreeWithChase checks Theorem 3 on one database: every ground atom of
// a bounded restricted chase over Σ's signature is derived by dat(Σ),
// and when the chase saturates the two agree exactly.
func agreeWithChase(t *testing.T, name string, th, dat *core.Theory, d *database.Database) {
	t.Helper()
	ch, err := chase.Run(th, d, chase.Options{Variant: chase.Restricted, MaxDepth: 6, Budget: &budget.T{MaxFacts: 50_000}})
	if err != nil && !budget.IsBudget(err) {
		t.Fatalf("%s: chase: %v", name, err)
	}
	fix, err := datalog.Eval(dat, d)
	if err != nil {
		t.Fatalf("%s: dat(Σ) eval: %v", name, err)
	}
	rels := map[string]bool{}
	for _, rk := range th.Relations() {
		rels[rk.Name] = rk.Name != core.ACDom
	}
	keep := func(k core.RelKey) bool { return rels[k.Name] }
	chGround := ch.DB.Restrict(keep)
	datGround := fix.Restrict(keep)
	if ch.Saturated {
		if ok, diff := database.SameGroundAtoms(chGround, datGround); !ok {
			t.Errorf("%s on %v: %s", name, d, diff)
		}
		return
	}
	for _, a := range chGround.GroundAtoms() {
		if !datGround.Has(a) {
			t.Errorf("%s on %v: chase derives %v, dat(Σ) does not", name, d, a)
		}
	}
}
