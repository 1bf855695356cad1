package database

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"guardedrules/internal/core"
)

var (
	snapA, snapB, snapC = core.Const("a"), core.Const("b"), core.Const("c")
	snapZ, snapP, snapQ = core.Const("z"), core.Const("p"), core.Const("q")
	snapFresh           = core.Const("fresh")
	snapNull            = core.NewNull("n9")
	snapRelE            = core.RelKey{Name: "E", Arity: 2}
)

// snapAnnotated is S[c](a): its constant c sits at an annotation
// position.
var snapAnnotated = core.Atom{Relation: "S", Args: []core.Term{snapA}, Annotation: []core.Term{snapC}}

// snapshotBase builds the database every isolation test starts from: a
// 3-cycle, two unary facts (z supported only by R(z)), an annotated
// fact and a pinned ACDom fact.
func snapshotBase() *Database {
	d := New()
	d.Add(core.NewAtom("E", snapA, snapB))
	d.Add(core.NewAtom("E", snapB, snapC))
	d.Add(core.NewAtom("E", snapC, snapA))
	d.Add(core.NewAtom("R", snapA))
	d.Add(core.NewAtom("R", snapZ))
	d.Add(snapAnnotated)
	d.Add(core.NewAtom(core.ACDom, snapP))
	return d
}

// snapshotSteps covers every write path of the database. Each step is
// applied to one side of a fresh snapshot and to an unshared reference.
var snapshotSteps = []struct {
	name string
	do   func(*Database)
}{
	{"add new term", func(d *Database) { d.Add(core.NewAtom("E", snapC, snapFresh)) }},
	{"add into new relation", func(d *Database) { d.Add(core.NewAtom("F", snapA, snapB)) }},
	{"add null", func(d *Database) { d.Add(core.NewAtom("R", snapNull)) }},
	{"retract", func(d *Database) { d.Retract(core.NewAtom("E", snapA, snapB)) }},
	{"retract last support", func(d *Database) { d.Retract(core.NewAtom("R", snapZ)) }},
	{"retract annotated", func(d *Database) { d.Retract(snapAnnotated) }},
	{"add explicit ACDom", func(d *Database) { d.Add(core.NewAtom(core.ACDom, snapQ)) }},
	{"retract explicit ACDom", func(d *Database) { d.Retract(core.NewAtom(core.ACDom, snapP)) }},
	{"retract derived ACDom", func(d *Database) { d.Retract(core.NewAtom(core.ACDom, snapB)) }},
	{"add derived ACDom", func(d *Database) { d.Add(core.NewAtom(core.ACDom, snapC)) }},
	{"InternTerm", func(d *Database) { d.InternTerm(core.NewNull("minted")) }},
	{"InternTerm known", func(d *Database) { d.InternTerm(snapA) }},
}

// fingerprint renders everything a reader can observe of d: the facts
// and their order, sizes, id tuples, statistics, the active domain and
// the ACDom support and pin state of every term the steps touch.
func fingerprint(d *Database) string {
	var b strings.Builder
	fmt.Fprintf(&b, "len=%d epoch=%d constants=%v\n%s\n", d.Len(), d.InternEpoch(), d.Constants(), d.String())
	for _, t := range []core.Term{snapA, snapB, snapC, snapZ, snapP, snapQ, snapFresh, snapNull} {
		fmt.Fprintf(&b, "%s support=%d pinned=%v\n", t, d.ACDomSupport(t), d.ACDomPinned(t))
	}
	rels := append(d.Relations(), core.RelKey{Name: "F", Arity: 2})
	for _, rk := range rels {
		fmt.Fprintf(&b, "%s/%d/%d size=%d", rk.Name, rk.Arity, rk.AnnArity, d.RelSize(rk))
		for p := 0; p < rk.Arity+rk.AnnArity; p++ {
			fmt.Fprintf(&b, " distinct[%d]=%d", p, d.DistinctAt(rk, p))
		}
		fmt.Fprintf(&b, " facts=%v ids=%v\n", d.Facts(rk), d.IDTuples(rk))
	}
	return b.String()
}

// Each write path, applied to either side of a snapshot, must leave the
// other side exactly as it was and the written side exactly like an
// unshared database that took the same writes.
func TestSnapshotIsolation(t *testing.T) {
	for _, writeClone := range []bool{true, false} {
		ref, d := snapshotBase(), snapshotBase()
		for _, st := range snapshotSteps {
			snap := d.Clone()
			mut, frozen := d, snap
			if writeClone {
				mut, frozen = snap, d
			}
			before := fingerprint(frozen)
			ids := mut.IDTuples(snapRelE)
			idsBefore := slices.Clone(ids)
			st.do(mut)
			st.do(ref)
			if got := fingerprint(frozen); got != before {
				t.Fatalf("writeClone=%v, %s: the other side changed:\nbefore:\n%s\nafter:\n%s", writeClone, st.name, before, got)
			}
			if got, want := fingerprint(mut), fingerprint(ref); got != want {
				t.Fatalf("writeClone=%v, %s: written side differs from an unshared database:\ngot:\n%s\nwant:\n%s", writeClone, st.name, got, want)
			}
			if !slices.Equal(ids, idsBefore) {
				t.Fatalf("writeClone=%v, %s: IDTuples read before the write changed: %v -> %v", writeClone, st.name, idsBefore, ids)
			}
			d = mut
		}
	}
}

// Writes to a snapshot of a snapshot never reach either ancestor.
func TestSnapshotChainIsolation(t *testing.T) {
	d0 := snapshotBase()
	d1 := d0.Clone()
	d1.Add(core.NewAtom("E", snapA, snapFresh))
	want0, want1 := fingerprint(d0), fingerprint(d1)
	d2 := d1.Clone()
	for _, st := range snapshotSteps {
		st.do(d2)
	}
	if fingerprint(d0) != want0 || fingerprint(d1) != want1 {
		t.Fatal("writes to a second-generation snapshot reached an ancestor")
	}
}

// Many goroutines snapshot one published database and write their own
// snapshots at once; then readers materialize atoms (Facts, UserFacts,
// String) from snapshots while a writer interns new terms into the
// database they were taken from. Run under -race: a write path that
// skips its copy-on-write check writes a structure the other goroutines
// read, the intern table that materialization reads included.
func TestSnapshotConcurrentClones(t *testing.T) {
	published := snapshotBase()
	want := fingerprint(published)
	ref := snapshotBase()
	for _, st := range snapshotSteps {
		st.do(ref)
	}
	wantMut := fingerprint(ref)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := published.Clone()
			for _, st := range snapshotSteps {
				st.do(c)
				if got := fingerprint(published); got != want {
					errs <- fmt.Sprintf("%s reached the published database", st.name)
					return
				}
			}
			if got := fingerprint(c); got != wantMut {
				errs <- fmt.Sprintf("snapshot diverged from the reference:\n%s\nwant:\n%s", got, wantMut)
			}
		}()
	}
	wg.Wait()

	writer := snapshotBase()
	wantUser := fmt.Sprint(writer.UserFacts())
	readers := make([]*Database, 4)
	for i := range readers {
		readers[i] = writer.Clone()
	}
	for _, c := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if fingerprint(c) != want || fmt.Sprint(c.UserFacts()) != wantUser {
					errs <- "a snapshot changed while its origin interned new terms"
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			writer.Add(core.NewAtom("E", snapA, core.Const(fmt.Sprintf("w%d", i))))
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// Clone shares structure instead of copying it: a snapshot of a large
// database allocates only the relation map.
func TestCloneSharesStructure(t *testing.T) {
	d := New()
	for i := 0; i < 2000; i++ {
		d.Add(core.NewAtom("E", core.Const(fmt.Sprintf("v%d", i)), core.Const(fmt.Sprintf("v%d", i+1))))
	}
	allocs := testing.AllocsPerRun(20, func() { d.Clone() })
	if allocs > 8 {
		t.Errorf("Clone of a 2-relation database made %.0f allocations; want it to share, not copy", allocs)
	}
	c := d.Clone()
	c.Add(core.NewAtom("E", core.Const("v0"), core.Const("v2")))
	if c.intern != d.intern {
		t.Error("an Add of known terms copied the shared intern table")
	}
	if c.byRel[core.RelKey{Name: core.ACDom, Arity: 1}] != d.byRel[core.RelKey{Name: core.ACDom, Arity: 1}] {
		t.Error("an Add of known constants copied the untouched ACDom relation")
	}
	if c.byRel[snapRelE] == d.byRel[snapRelE] {
		t.Error("the written relation is still shared")
	}
}
