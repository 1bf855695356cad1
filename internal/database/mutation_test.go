package database

import (
	"fmt"
	"math/rand"
	"testing"

	"guardedrules/internal/core"
)

// rebuild re-inserts every user fact of d into a fresh database — the
// reference a mutated database must coincide with.
func rebuild(d *Database) *Database {
	out := New()
	for _, a := range d.UserFacts() {
		out.Add(a)
	}
	for tm := range d.acdomX {
		out.Add(core.NewAtom(core.ACDom, tm))
	}
	return out
}

// checkConsistent verifies the full index invariant set of d against a
// from-scratch rebuild: same String, same sizes, same per-position
// distinct counts and posting lists, working Has/SeenIDs for every fact,
// and no stale entries for removed facts.
func checkConsistent(t *testing.T, d *Database) {
	t.Helper()
	ref := rebuild(d)
	if got, want := d.String(), ref.String(); got != want {
		t.Fatalf("String mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if d.Len() != ref.Len() {
		t.Fatalf("Len = %d, rebuild = %d", d.Len(), ref.Len())
	}
	if got, want := len(d.Relations()), len(ref.Relations()); got != want {
		t.Fatalf("Relations count = %d, rebuild = %d", got, want)
	}
	for _, rk := range d.Relations() {
		if d.RelSize(rk) != ref.RelSize(rk) {
			t.Fatalf("%v: RelSize = %d, rebuild = %d", rk, d.RelSize(rk), ref.RelSize(rk))
		}
		w := rk.Arity + rk.AnnArity
		for p := 0; p < w; p++ {
			if d.DistinctAt(rk, p) != ref.DistinctAt(rk, p) {
				t.Fatalf("%v pos %d: DistinctAt = %d, rebuild = %d", rk, p, d.DistinctAt(rk, p), ref.DistinctAt(rk, p))
			}
		}
		facts := d.Facts(rk)
		for ix, a := range facts {
			if !d.Has(a) {
				t.Fatalf("stored fact %s not found by Has", a)
			}
			ids, ok := d.FactIDs(nil, a)
			if !ok || !d.SeenIDs(rk, ids) {
				t.Fatalf("stored fact %s not found by SeenIDs", a)
			}
			// Every posting list containing ix must be ascending and
			// actually contain ix at the right id.
			for p := 0; p < w; p++ {
				list := d.IndexWithID(rk, p, ids[p])
				found := false
				for k, o := range list {
					if k > 0 && list[k-1] >= o {
						t.Fatalf("%v pos %d id %d: posting list not ascending: %v", rk, p, ids[p], list)
					}
					if int(o) == ix {
						found = true
					}
				}
				if !found {
					t.Fatalf("%v pos %d: ordinal %d of %s missing from posting list", rk, p, ix, a)
				}
			}
		}
	}
	// The active domain must match the rebuild exactly.
	gotC, wantC := d.Constants(), ref.Constants()
	if len(gotC) != len(wantC) {
		t.Fatalf("Constants = %v, rebuild = %v", gotC, wantC)
	}
	for i := range gotC {
		if gotC[i] != wantC[i] {
			t.Fatalf("Constants = %v, rebuild = %v", gotC, wantC)
		}
	}
}

func TestRetractBasic(t *testing.T) {
	d := New()
	d.Add(atom("R", "a", "b"))
	d.Add(atom("R", "b", "c"))
	d.Add(atom("S", "a"))
	if !d.Retract(atom("R", "a", "b")) {
		t.Fatal("retract of present fact reported false")
	}
	if d.Retract(atom("R", "a", "b")) {
		t.Fatal("second retract reported true")
	}
	if d.Has(atom("R", "a", "b")) {
		t.Fatal("retracted fact still present")
	}
	if !d.Has(atom("R", "b", "c")) || !d.Has(atom("S", "a")) {
		t.Fatal("unrelated facts lost")
	}
	checkConsistent(t, d)
}

func TestRetractLastFactDropsRelation(t *testing.T) {
	d := New()
	d.Add(atom("R", "a"))
	d.Add(atom("S", "a"))
	d.Retract(atom("R", "a"))
	for _, rk := range d.Relations() {
		if rk.Name == "R" {
			t.Fatal("empty relation R still listed")
		}
	}
	checkConsistent(t, d)
}

// TestRetractACDomRefcount pins the ACDom maintenance contract under
// deletion: a derived ACDom fact dies exactly when the last occurrence
// of its constant dies, and survives while any other fact mentions it.
func TestRetractACDomRefcount(t *testing.T) {
	d := New()
	d.Add(atom("R", "a", "b"))
	d.Add(atom("S", "b"))

	d.Retract(atom("R", "a", "b"))
	if d.Has(atom(core.ACDom, "a")) {
		t.Fatal("ACDom(a) should die with its only support")
	}
	if !d.Has(atom(core.ACDom, "b")) {
		t.Fatal("ACDom(b) must survive: S(b) still supports it")
	}
	d.Retract(atom("S", "b"))
	if d.Has(atom(core.ACDom, "b")) {
		t.Fatal("ACDom(b) should die with its last support")
	}
	if d.Len() != 0 {
		t.Fatalf("database not empty after all retractions: %d facts", d.Len())
	}
	checkConsistent(t, d)
}

// Duplicate occurrences of a constant inside one fact must count with
// multiplicity, or the add/delete counts desynchronize.
func TestRetractACDomDuplicateOccurrences(t *testing.T) {
	d := New()
	d.Add(atom("R", "a", "a"))
	d.Add(atom("S", "a"))
	d.Retract(atom("R", "a", "a"))
	if !d.Has(atom(core.ACDom, "a")) {
		t.Fatal("ACDom(a) lost while S(a) still supports it")
	}
	d.Retract(atom("S", "a"))
	if d.Has(atom(core.ACDom, "a")) {
		t.Fatal("ACDom(a) should be gone")
	}
	checkConsistent(t, d)
}

// DeleteNotify must report the fact and every ACDom fact that died with
// it, mirroring AddNotify.
func TestDeleteNotify(t *testing.T) {
	d := New()
	d.Add(atom("R", "a", "b"))
	d.Add(atom("S", "b"))
	var got []string
	if removed, err := d.DeleteNotify(atom("R", "a", "b"), func(a core.Atom) {
		got = append(got, a.String())
	}); err != nil || !removed {
		t.Fatalf("DeleteNotify = %v, %v", removed, err)
	}
	want := []string{"R(a,b)", core.ACDom + "(a)"}
	if len(got) != len(want) {
		t.Fatalf("notifications = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("notifications = %v, want %v", got, want)
		}
	}
}

func TestDeleteNotifyNonGround(t *testing.T) {
	d := New()
	if _, err := d.DeleteNotify(core.NewAtom("R", core.Var("X")), nil); err == nil {
		t.Fatal("expected ErrNotGround")
	}
}

// An explicitly added ACDom fact is pinned: it survives the death of
// every supporting occurrence. A derived one cannot be retracted while
// supported.
func TestRetractExplicitACDom(t *testing.T) {
	d := New()
	d.Add(atom(core.ACDom, "a"))
	d.Add(atom("R", "a"))
	d.Retract(atom("R", "a"))
	if !d.Has(atom(core.ACDom, "a")) {
		t.Fatal("explicit ACDom(a) must survive its supports")
	}

	d2 := New()
	d2.Add(atom("R", "a"))
	if d2.Retract(atom(core.ACDom, "a")) {
		t.Fatal("derived ACDom fact must not be directly retractable while supported")
	}
	if !d2.Has(atom(core.ACDom, "a")) {
		t.Fatal("derived ACDom(a) lost")
	}
}

// TestRetractRandomized drives a random add/retract interleaving and
// checks the full index invariants after every operation batch. This is
// the torture test for swap-remove ordinal bookkeeping, posting-list
// order, seen-set backshift deletion and ACDom refcounts.
func TestRetractRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := New()
	var live []core.Atom
	names := []string{"a", "b", "c", "d", "e", "f,g", "h(", "", "x\x00y"}
	rels := []string{"R", "S", "T"}
	randAtom := func() core.Atom {
		rel := rels[rng.Intn(len(rels))]
		n := 1 + rng.Intn(3)
		args := make([]string, n)
		for i := range args {
			args[i] = names[rng.Intn(len(names))]
		}
		return atom(rel, args...)
	}
	for step := 0; step < 400; step++ {
		if rng.Intn(3) > 0 || len(live) == 0 {
			a := randAtom()
			if d.Add(a) {
				live = append(live, a)
			}
		} else {
			i := rng.Intn(len(live))
			a := live[i]
			if !d.Retract(a) {
				t.Fatalf("step %d: live fact %s not retractable", step, a)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if step%25 == 0 {
			checkConsistent(t, d)
		}
	}
	checkConsistent(t, d)
	// Drain to empty: everything must unwind cleanly.
	for _, a := range live {
		if !d.Retract(a) {
			t.Fatalf("drain: %s not retractable", a)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("drained database still has %d facts", d.Len())
	}
	checkConsistent(t, d)
}

// TestCloneEquivalence pins the id-space Clone contract: byte-identical
// String, identical stats and intern epoch, preserved ids, and full
// mutation isolation in both directions.
func TestCloneEquivalence(t *testing.T) {
	d := New()
	for i := 0; i < 50; i++ {
		d.Add(atom("E", fmt.Sprint(i), fmt.Sprint(i+1)))
		d.Add(atom("L", fmt.Sprint(i%7)))
	}
	d.Add(core.NewAtom("N", core.NewNull("n1"), core.Const("a,b")))
	d.Add(atom(core.ACDom, "pinned"))
	d.Retract(atom("E", "3", "4")) // clone a post-mutation state too

	c := d.Clone()
	if got, want := c.String(), d.String(); got != want {
		t.Fatalf("Clone().String() differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if c.Len() != d.Len() {
		t.Fatalf("Clone Len = %d, want %d", c.Len(), d.Len())
	}
	if c.InternEpoch() != d.InternEpoch() {
		t.Fatalf("Clone InternEpoch = %d, want %d", c.InternEpoch(), d.InternEpoch())
	}
	for _, rk := range d.Relations() {
		if c.RelSize(rk) != d.RelSize(rk) {
			t.Fatalf("%v: clone RelSize = %d, want %d", rk, c.RelSize(rk), d.RelSize(rk))
		}
		for p := 0; p < rk.Arity+rk.AnnArity; p++ {
			if c.DistinctAt(rk, p) != d.DistinctAt(rk, p) {
				t.Fatalf("%v pos %d: clone DistinctAt = %d, want %d", rk, p, c.DistinctAt(rk, p), d.DistinctAt(rk, p))
			}
		}
	}
	// Ids are preserved: every term resolves identically.
	for _, rk := range d.Relations() {
		for _, a := range d.Facts(rk) {
			want, _ := d.FactIDs(nil, a)
			got, ok := c.FactIDs(nil, a)
			if !ok || !equalIDs(got, want) {
				t.Fatalf("clone ids of %s = %v, want %v", a, got, want)
			}
		}
	}
	// Mutation isolation: divergent edits stay private.
	before := d.String()
	c.Add(atom("E", "100", "101"))
	c.Retract(atom("L", "0"))
	if d.String() != before {
		t.Fatal("mutating the clone changed the original")
	}
	cBefore := c.String()
	d.Retract(atom("E", "7", "8"))
	d.Add(atom("Z", "z"))
	if c.String() != cBefore {
		t.Fatal("mutating the original changed the clone")
	}
	checkConsistent(t, c)
	checkConsistent(t, d)

	// The explicit ACDom pin must survive the clone.
	c2 := d.Clone()
	c2.Add(atom("R", "pinned"))
	c2.Retract(atom("R", "pinned"))
	if !c2.Has(atom(core.ACDom, "pinned")) {
		t.Fatal("explicit ACDom pin lost by Clone")
	}
}

// cloneViaAdd is the pre-optimization Clone: every fact round-trips
// through the term-space Add path (re-hashing and re-interning every
// term). Kept as the benchmark baseline proving the id-space win.
func cloneViaAdd(d *Database) *Database {
	out := New()
	for _, a := range d.UserFacts() {
		out.Add(a.Clone())
	}
	for _, a := range d.Facts(core.RelKey{Name: core.ACDom, Arity: 1}) {
		out.Add(a.Clone())
	}
	return out
}

func benchDB(n int) *Database {
	d := New()
	for i := 0; i < n; i++ {
		d.Add(atom("E", fmt.Sprint(i), fmt.Sprint((i*7+1)%n)))
		d.Add(atom("T", fmt.Sprint(i%97), fmt.Sprint(i), fmt.Sprint((i*3)%n)))
	}
	return d
}

func BenchmarkClone(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		d := benchDB(n)
		b.Run(fmt.Sprintf("idspace/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c := d.Clone(); c.Len() != d.Len() {
					b.Fatal("bad clone")
				}
			}
		})
		b.Run(fmt.Sprintf("viaAdd/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c := cloneViaAdd(d); c.Len() != d.Len() {
					b.Fatal("bad clone")
				}
			}
		})
	}
}
