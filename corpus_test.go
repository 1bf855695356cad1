package guardedrules

// Compliance corpus: every theory in testdata/ is parsed, classified,
// termination-analyzed and chased, and the expectations below are checked.
// The corpus doubles as documentation of what each fragment looks like.

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

type corpusEntry struct {
	name string
	// Expected fragment membership (only the listed fragments are
	// asserted; true = member, false = non-member).
	fragments map[Fragment]bool
	// Expected weak-acyclicity verdict.
	weaklyAcyclic bool
	// Entailed and non-entailed ground atoms after a bounded chase.
	entailed    []Atom
	notEntailed []Atom
	// Whether the theory uses stratified negation (chased via
	// EvalStratified instead).
	stratified bool
}

var corpus = []corpusEntry{
	{
		name: "publication",
		fragments: map[Fragment]bool{
			FrontierGuarded:       true,
			Guarded:               false,
			WeaklyGuarded:         false,
			WeaklyFrontierGuarded: true,
			NearlyGuarded:         false,
		},
		weaklyAcyclic: true,
		entailed: []Atom{
			NewAtom("Q", Const("a1")),
			NewAtom("Q", Const("a2")),
		},
		notEntailed: []Atom{NewAtom("Q", Const("t1"))},
	},
	{
		name: "example7",
		fragments: map[Fragment]bool{
			Guarded:         true,
			FrontierGuarded: true,
			WeaklyGuarded:   true,
		},
		weaklyAcyclic: true,
		entailed:      []Atom{NewAtom("D", Const("c"))},
		notEntailed:   []Atom{NewAtom("D", Const("d"))},
	},
	{
		name: "transitive",
		fragments: map[Fragment]bool{
			Datalog:         true,
			Guarded:         false,
			FrontierGuarded: false,
			NearlyGuarded:   true,
			WeaklyGuarded:   true,
		},
		weaklyAcyclic: true,
		entailed:      []Atom{NewAtom("T", Const("a"), Const("d"))},
		notEntailed:   []Atom{NewAtom("T", Const("d"), Const("a"))},
	},
	{
		name: "ancestor",
		fragments: map[Fragment]bool{
			Guarded: true,
		},
		weaklyAcyclic: false,
		entailed:      []Atom{NewAtom("Person", Const("adam"))},
	},
	{
		name: "reachability",
		fragments: map[Fragment]bool{
			Datalog: true,
		},
		weaklyAcyclic: true,
		stratified:    true,
		entailed: []Atom{
			NewAtom("Unreach", Const("c")),
			NewAtom("Unreach", Const("d")),
			NewAtom("Reach", Const("b")),
		},
		notEntailed: []Atom{NewAtom("Unreach", Const("b"))},
	},
	{
		name: "dlsafe",
		fragments: map[Fragment]bool{
			NearlyGuarded:         true,
			NearlyFrontierGuarded: true,
			Guarded:               false,
			FrontierGuarded:       false,
			WeaklyGuarded:         true,
		},
		weaklyAcyclic: true,
		entailed:      []Atom{NewAtom("Connected", Const("a"), Const("c"))},
	},
	{
		name: "wguarded",
		fragments: map[Fragment]bool{
			WeaklyGuarded:         true,
			WeaklyFrontierGuarded: true,
			Guarded:               false,
			NearlyGuarded:         false,
		},
		weaklyAcyclic: true,
		entailed:      []Atom{NewAtom("Out", Const("a"), Const("b"))},
	},
}

func loadCorpus(t *testing.T, name, ext string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name+ext))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestCorpusCompliance(t *testing.T) {
	for _, entry := range corpus {
		entry := entry
		t.Run(entry.name, func(t *testing.T) {
			th, err := ParseTheory(loadCorpus(t, entry.name, ".rules"))
			if err != nil {
				t.Fatal(err)
			}
			facts, err := ParseFacts(loadCorpus(t, entry.name, ".facts"))
			if err != nil {
				t.Fatal(err)
			}
			db := NewDatabase(facts...)

			rep := Classify(th)
			for f, want := range entry.fragments {
				if rep.Member[f] != want {
					t.Errorf("fragment %v: got %v want %v (offender %v)",
						f, rep.Member[f], want, rep.Offender[f])
				}
			}
			if got := ChaseTerminates(th); got != entry.weaklyAcyclic {
				t.Errorf("weak acyclicity: got %v want %v", got, entry.weaklyAcyclic)
			}

			has := func(a Atom) bool { return false }
			if entry.stratified {
				out, exact, err := EvalStratifiedCtx(context.Background(), th, db, Options{MaxDepth: 8})
				if err != nil {
					t.Fatal(err)
				}
				if !exact {
					t.Error("stratified corpus entries must evaluate exactly")
				}
				has = out.Has
			} else {
				res, err := ChaseCtx(context.Background(), th, db, Options{Variant: Restricted, MaxDepth: 8, MaxFacts: 100_000})
				if err != nil {
					t.Fatal(err)
				}
				if entry.weaklyAcyclic && !res.Saturated {
					t.Error("weakly acyclic theory must saturate")
				}
				has = res.DB.Has
			}
			for _, a := range entry.entailed {
				if !has(a) {
					t.Errorf("%v must be entailed", a)
				}
			}
			for _, a := range entry.notEntailed {
				if has(a) {
					t.Errorf("%v must not be entailed", a)
				}
			}
		})
	}
}

// Every corpus theory round-trips through the printer.
func TestCorpusRoundTrip(t *testing.T) {
	for _, entry := range corpus {
		th, err := ParseTheory(loadCorpus(t, entry.name, ".rules"))
		if err != nil {
			t.Fatal(err)
		}
		printed := PrintTheory(th)
		th2, err := ParseTheory(printed)
		if err != nil {
			t.Fatalf("%s: re-parse failed: %v\n%s", entry.name, err, printed)
		}
		if len(th2.Rules) != len(th.Rules) {
			t.Errorf("%s: rule count changed", entry.name)
		}
	}
}

// Large-scale smoke test (skipped with -short): the running example over a
// 64-publication citation graph, the translation chain included.
func TestLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale smoke test")
	}
	th, err := ParseTheory(loadCorpus(t, "publication", ".rules"))
	if err != nil {
		t.Fatal(err)
	}
	ng, err := TranslateCtx(context.Background(), th, ToNearlyGuarded, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{32, 64} {
		d := NewDatabase()
		for _, a := range citationGraph(n) {
			d.Add(a)
		}
		r1, err := ChaseCtx(context.Background(), th, d, Options{Variant: Restricted, MaxDepth: 6, MaxFacts: 5_000_000})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := ChaseCtx(context.Background(), ng, d, Options{Variant: Restricted, MaxDepth: 6, MaxFacts: 5_000_000})
		if err != nil {
			t.Fatal(err)
		}
		q1 := collectQ(r1.DB)
		q2 := collectQ(r2.DB)
		if len(q1) != len(q2) || len(q1) != n+1 {
			t.Errorf("n=%d: Q answers %d vs %d (want %d)", n, len(q1), len(q2), n+1)
		}
	}
}

func citationGraph(n int) []Atom {
	var out []Atom
	pub := func(i int) Term { return Const("p" + itoa(i)) }
	author := func(i int) Term { return Const("a" + itoa(i)) }
	for i := 0; i < n; i++ {
		out = append(out,
			NewAtom("Publication", pub(i)),
			NewAtom("hasAuthor", pub(i), author(i)),
			NewAtom("hasAuthor", pub(i), author(i+1)))
		if i > 0 {
			out = append(out, NewAtom("citedIn", pub(i-1), pub(i)))
		}
	}
	out = append(out,
		NewAtom("hasTopic", pub(0), Const("t0")),
		NewAtom("Scientific", Const("t0")))
	return out
}

func collectQ(d *Database) []Atom {
	var out []Atom
	for _, a := range d.UserFacts() {
		if a.Relation == "Q" {
			out = append(out, a)
		}
	}
	return out
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}
