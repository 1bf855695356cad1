// Package database implements an indexed store of ground atoms (over
// constants and labeled nulls), the "database" of Section 2 of the paper.
//
// Facts are deduplicated and indexed on interned term ids (see internTable):
// every term of every inserted atom is mapped to a dense uint32, and the
// per-relation seen-set and per-position indexes are keyed on packed id
// tuples. Because ids are bijective with terms and keys are scoped by
// relation key (name, annotation arity, arity), distinct atoms can never
// collide — unlike naive string serialization, where an unescaped
// separator inside a constant name conflates R("a,b") with R(a,b). A new
// term or relation is stored with its own copy of its name, so a
// database never keeps alive the text its atoms were parsed from.
//
// # ACDom maintenance contract
//
// The store maintains the built-in active constant domain relation ACDom:
// ACDom(c) holds exactly for the constants that occur in some non-ACDom
// fact. Labeled nulls never enter ACDom. The contract has two sides:
//
//   - The Database derives ACDom facts: every Add of a non-ACDom fact
//     inserts ACDom(c) for each constant c of the fact (arguments and
//     annotation). It does so in id space: ACDom(c) is inserted by the id
//     the add just interned for c, and an ACDom atom is built only for a
//     notify callback. Callers never need to — and, outside of tests,
//     should not — insert ACDom facts themselves. AddNotify reports the
//     derived ACDom facts to the caller, so fixpoint engines can propagate
//     them into their semi-naive deltas: a derived fact that introduces a
//     fresh constant silently extends ACDom, and an evaluator that does
//     not treat the new ACDom fact as delta will miss derivations of
//     ACDom-reading rules.
//   - Evaluators must schedule ACDom-reading rules no earlier than rules
//     that can introduce new head constants. datalog.Stratify implements
//     this with an implicit positive dependency edge from every head
//     relation to ACDom, so ACDom's stratum is at least the stratum of
//     every relation whose derivation can grow the active domain.
//
// # Snapshots
//
// Clone is copy-on-write. The clone gets its own relation map but shares
// three kinds of structure with the original: every relation (id
// tuples, posting lists, seen-set), the intern table and the ACDom
// support counts. Clone marks each of them shared, and a shared
// structure is never written again: the first write through either
// database that would change one replaces it, in that database only,
// with a private copy. The intern table is copied whole, and only when
// a term never seen before is interned. A relation and the ACDom counts
// are paged (see pages): their private copy copies the page directories
// only, one pointer per page, and each page is copied on its own first
// write. A posting list inside a copied page is copied on its own first
// write too. So a snapshot costs O(#relations), and a write after it
// copies the directories of the structures it writes and the pages and
// lists it changes, not the relations. Relations nobody writes stay
// shared for good. A slice read from a shared relation (Rel.Tuple,
// Rel.Posting, IndexWithID) keeps reading the frozen pre-write data
// after either database writes that relation.
//
// # Relation handles
//
// Rel returns a relation's read handle (size, id tuples, posting lists,
// distinct counts, seen-set probe); the RelKey-keyed readers (IDTuples,
// IndexWithID, SeenIDs, RelSize, DistinctAt, CountWithID) wrap it. A
// handle reads the database's current facts of its relation for as long
// as Epoch is unchanged, through any number of inserts and removals. A
// write that creates a relation, replaces a shared one by its private
// copy or drops an emptied one moves Epoch, and so does interning a
// term: re-resolve handles (and term ids) then. A stale handle still
// reads the relation it was taken from, frozen at the replacement.
//
// # Materialized atoms
//
// A fact is stored once, as its id tuple. The atom-returning reads
// (Facts, FactsWith, UserFacts, FactsContaining, GroundAtoms) build
// fresh atoms from the ids through the intern table, in insertion
// order; the caller owns them. Materialized atoms carry no Span.
// ForEachFact and ForEachWithID instead hand their callback one reused
// scratch atom (see their docs).
package database

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"guardedrules/internal/core"
)

// ErrNotGround is returned (wrapped with the offending atom) when a
// non-ground atom is inserted: databases are sets of ground atoms by
// definition (Section 2 of the paper). Match with errors.Is.
var ErrNotGround = errors.New("database: atom is not ground")

// Database is a set of ground atoms with per-relation and per-position
// indexes supporting homomorphism search.
type Database struct {
	intern *internTable
	byRel  map[core.RelKey]*Rel
	size   int
	// relWrites counts the writes that changed byRel: a relation created,
	// replaced by its private copy, or dropped. See Epoch.
	relWrites int
	// noted is the id tuple AddIDs hands its notify callback: a copy, so
	// that the caller's tuple never escapes to the heap.
	noted []uint32
	// acdom counts, per constant, its occurrences across all non-ACDom
	// facts (arguments and annotation, with multiplicity). A constant is
	// in the active domain exactly while its count is positive; the count
	// is what lets retraction drop ACDom(c) precisely when the last
	// supporting occurrence dies.
	acdom *acdomCounts
	// acdomX marks constants whose ACDom fact was added explicitly by a
	// caller (rare, test-only): those facts survive even when no fact
	// supports them.
	acdomX map[core.Term]bool
}

// New returns an empty database.
func New() *Database {
	return &Database{
		intern: newInternTable(),
		byRel:  make(map[core.RelKey]*Rel),
		acdom:  &acdomCounts{},
	}
}

// FromAtoms returns a database containing the given ground atoms.
func FromAtoms(atoms []core.Atom) *Database {
	d := New()
	for _, a := range atoms {
		d.Add(a)
	}
	return d
}

// Add inserts a ground atom and reports whether it was new. A non-ground
// atom is rejected (never inserted) and reports false; use AddNotify to
// observe the typed ErrNotGround instead. ACDom facts for the constants
// of the atom are added automatically.
func (d *Database) Add(a core.Atom) bool {
	added, _ := d.AddNotify(a, nil)
	return added
}

// AddNotify inserts a ground atom like Add and additionally calls
// notify for every fact actually inserted: the atom itself and any ACDom
// facts derived from its constants. Fixpoint engines use it to keep
// derived ACDom facts in their semi-naive deltas (see the package
// comment). Non-ground atoms are rejected with an error wrapping
// ErrNotGround.
func (d *Database) AddNotify(a core.Atom, notify func(core.Atom)) (bool, error) {
	var buf [16]uint32
	_, added, err := d.AddTuple(buf[:0], a, notify)
	return added, err
}

// AddTuple is AddNotify that also appends the atom's id tuple
// (arguments first, then annotation) to dst and returns it, whether or
// not the atom was new; a rejected atom returns dst unchanged. A journal
// writes the returned tuple as it stands, with no second lookup of the
// atom's terms.
//
// An explicitly added ACDom(c) of a constant c pins c: the fact is not
// retracted when c loses its last supporting occurrence. It pins c
// whether or not the fact was already derived, and a new pin reports
// true, so the order of the statements that add ACDom(c) and the facts
// that derive it does not matter. notify sees only inserted facts.
func (d *Database) AddTuple(dst []uint32, a core.Atom, notify func(core.Atom)) ([]uint32, bool, error) {
	if !a.IsGround() {
		return dst, false, fmt.Errorf("%w: %s", ErrNotGround, a.String())
	}
	key := d.internAtom(dst, a)
	var note func(core.RelKey, []uint32)
	if notify != nil {
		note = func(rk core.RelKey, ids []uint32) { notify(d.Atom(rk, ids)) }
	}
	return key, d.AddIDs(a.Key(), key, note), nil
}

// InternAtom appends the id tuple of the ground atom a (arguments first,
// then annotation) to dst, interning its unseen terms, and inserts no
// fact. A non-ground atom is rejected with an error wrapping
// ErrNotGround.
func (d *Database) InternAtom(dst []uint32, a core.Atom) ([]uint32, error) {
	if !a.IsGround() {
		return dst, fmt.Errorf("%w: %s", ErrNotGround, a.String())
	}
	return d.internAtom(dst, a), nil
}

// AddIDs is AddTuple for a fact given as rk and the id tuple ids, whose
// terms d has already interned (InternAtom, TermID, or a tuple read from
// d). It derives and pins ACDom facts like AddTuple, and calls notify,
// when non-nil, with the relation and id tuple of every fact it
// inserts; the tuple is only valid during the call. Fixpoint engines
// merge derived facts through it without building atoms.
func (d *Database) AddIDs(rk core.RelKey, ids []uint32, notify func(core.RelKey, []uint32)) bool {
	if !d.insert(rk, ids) {
		return d.pin(rk, ids)
	}
	if notify != nil {
		d.noted = append(d.noted[:0], ids...)
		notify(rk, d.noted)
	}
	if rk.Name != core.ACDom {
		for _, id := range ids {
			d.noteConstant(id, notify)
		}
	}
	d.pin(rk, ids)
	return true
}

// pin pins the constant of an explicit ACDom fact of rk with id tuple
// key, reporting whether it was not pinned before.
func (d *Database) pin(rk core.RelKey, key []uint32) bool {
	if rk != acdomKey {
		return false
	}
	t := d.intern.TermOf(key[0])
	if !t.IsConst() || d.acdomX[t] {
		return false
	}
	if d.acdomX == nil {
		d.acdomX = make(map[core.Term]bool)
	}
	d.acdomX[t] = true
	return true
}

// acdomKey is the relation key of the ACDom facts the database derives.
var acdomKey = core.RelKey{Name: core.ACDom, Arity: 1}

// noteConstant counts one more supporting occurrence of the term with
// interned id. On the first occurrence of a constant it inserts the
// derived ACDom fact by that id.
func (d *Database) noteConstant(id uint32, notify func(core.RelKey, []uint32)) {
	if !d.intern.TermOf(id).IsConst() {
		return
	}
	n := d.addACDom(id, 1)
	if key := [1]uint32{id}; n == 0 && d.insert(acdomKey, key[:]) && notify != nil {
		d.noted = append(d.noted[:0], id)
		notify(acdomKey, d.noted)
	}
}

// internTuple appends the interned ids of the atom's terms (arguments
// first, then annotation) to dst, interning unseen terms.
func (d *Database) internTuple(dst []uint32, a core.Atom) []uint32 {
	for _, t := range a.Args {
		dst = append(dst, d.intern.Intern(t))
	}
	for _, t := range a.Annotation {
		dst = append(dst, d.intern.Intern(t))
	}
	return dst
}

// lookupTuple appends the ids of the atom's terms without interning; ok is
// false when some term has never been interned (the atom cannot be in d).
func (d *Database) lookupTuple(dst []uint32, a core.Atom) ([]uint32, bool) {
	for _, t := range a.Args {
		id, ok := d.intern.Lookup(t)
		if !ok {
			return dst, false
		}
		dst = append(dst, id)
	}
	for _, t := range a.Annotation {
		id, ok := d.intern.Lookup(t)
		if !ok {
			return dst, false
		}
		dst = append(dst, id)
	}
	return dst, true
}

// internAtom appends the atom's id tuple to dst like internTuple. A
// shared intern table is copied first, and only when a term is new.
func (d *Database) internAtom(dst []uint32, a core.Atom) []uint32 {
	if d.intern.shared.Load() {
		if key, ok := d.lookupTuple(dst, a); ok {
			return key
		}
		d.intern = d.intern.clone()
	}
	return d.internTuple(dst, a)
}

// insert adds the fact of rk with id tuple key to its relation, with no
// ACDom side effects, and reports whether it was new. A new relation's
// map key gets its own copy of the name, so the database never keeps
// alive the text an atom was parsed from.
func (d *Database) insert(rk core.RelKey, key []uint32) bool {
	r := d.byRel[rk]
	h := HashIDs(key)
	switch {
	case r == nil:
		rk.Name = strings.Clone(rk.Name)
		r = newRel(rk)
		d.byRel[rk] = r
		d.relWrites++
	case r.HasHash(h, key):
		return false
	case r.shared.Load():
		r = r.clone()
		d.byRel[r.key] = r
		d.relWrites++
	}
	r.append(h, key)
	d.size++
	return true
}

// removeFact deletes the fact with id tuple key from rk's relation r and
// reports whether it was present, dropping the relation once it is empty.
func (d *Database) removeFact(rk core.RelKey, r *Rel, key []uint32) bool {
	if r.shared.Load() {
		if !r.Has(key) {
			return false
		}
		r = r.clone()
		d.byRel[r.key] = r
		d.relWrites++
	}
	if !r.remove(key) {
		return false
	}
	d.size--
	if r.n == 0 {
		delete(d.byRel, rk)
		d.relWrites++
	}
	return true
}

// Rel returns the read handle of rk's relation; nil, which reads as
// empty, when d holds no fact of rk. The handle reads d's current facts
// of rk for as long as Epoch is unchanged. A write that moves Epoch may
// create, replace (copy-on-write) or drop the relation; the old handle
// then still reads the relation it was taken from, which is never
// written again once replaced, so re-resolve it.
func (d *Database) Rel(rk core.RelKey) *Rel { return d.byRel[rk] }

// Epoch returns a counter that grows whenever a handle from Rel or an
// answer of TermID may change: a relation is created, replaced by its
// private copy or dropped, or a term is interned. Inserts and removals
// inside a relation d already owns leave it alone. Engines that compile
// atoms against d re-resolve them when it moved since they last did.
func (d *Database) Epoch() int { return d.relWrites + d.intern.Len() }

// IDTuples returns a copy of the interned-id tuples of rk's facts as one
// flat slice, rk.Arity+rk.AnnArity ids per fact, in the same order as
// Facts; the caller owns it. Engines read a relation's tuples in place
// through its handle (Rel.Tuple).
func (d *Database) IDTuples(rk core.RelKey) []uint32 {
	r := d.Rel(rk)
	return r.AppendTuples(nil, 0, r.Len())
}

// IndexWithID returns the Facts ordinals of every fact of rk whose flat
// position pos has the interned id, in insertion order. The returned
// slice must not be modified.
func (d *Database) IndexWithID(rk core.RelKey, pos int, id uint32) []int32 {
	return d.Rel(rk).Posting(pos, id)
}

// Has reports whether the ground atom is in the database.
func (d *Database) Has(a core.Atom) bool {
	var buf [16]uint32
	key, ok := d.lookupTuple(buf[:0], a)
	if !ok {
		return false
	}
	return d.Rel(a.Key()).Has(key)
}

// SeenKey reports whether a fact with relation key rk and packed
// little-endian byte key (as produced by hom.State.PackApplied) is in
// the database.
// The id-slice variant SeenIDs avoids the byte packing and is preferred
// on hot paths.
func (d *Database) SeenKey(rk core.RelKey, key []byte) bool {
	var buf [16]uint32
	ids := buf[:0]
	for i := 0; i+4 <= len(key); i += 4 {
		ids = append(ids, uint32(key[i])|uint32(key[i+1])<<8|uint32(key[i+2])<<16|uint32(key[i+3])<<24)
	}
	return d.SeenIDs(rk, ids)
}

// SeenIDs reports whether a fact of rk with the given packed id tuple
// (arguments first, then annotation) is in the database.
func (d *Database) SeenIDs(rk core.RelKey, ids []uint32) bool { return d.Rel(rk).Has(ids) }

// TermID returns the interned id of t; ok is false when t occurs in no
// fact of the database. Ids are only meaningful within this database.
func (d *Database) TermID(t core.Term) (uint32, bool) { return d.intern.Lookup(t) }

// InternTerm interns t into the database's term table without inserting
// any fact, returning its dense id. Engines that mint fresh terms (the
// chase's labeled nulls) use it to obtain the term's id before the first
// fact containing it is added, so id-keyed side tables can be indexed
// immediately.
func (d *Database) InternTerm(t core.Term) uint32 {
	if d.intern.shared.Load() {
		if id, ok := d.intern.Lookup(t); ok {
			return id
		}
		d.intern = d.intern.clone()
	}
	return d.intern.Intern(t)
}

// AddCost returns how many facts an Add of a would insert right now: 0
// when the atom is already present, otherwise 1 plus one for each
// distinct fresh constant of the atom that would newly enter ACDom (see
// the ACDom maintenance contract). Non-ground atoms — which Add rejects —
// cost 1. Engines with fact ceilings use it to enforce the ceiling
// per added fact, including the derived ACDom facts.
func (d *Database) AddCost(a core.Atom) int {
	if !a.IsGround() {
		return 1
	}
	if d.Has(a) {
		return 0
	}
	cost := 1
	if a.Relation == core.ACDom {
		return cost
	}
	var fresh []core.Term
	count := func(t core.Term) {
		if !t.IsConst() || d.ACDomSupport(t) > 0 {
			return
		}
		for _, u := range fresh {
			if u == t {
				return
			}
		}
		fresh = append(fresh, t)
		// An explicitly added ACDom fact keeps insert from re-adding it.
		if !d.Has(core.NewAtom(core.ACDom, t)) {
			cost++
		}
	}
	for _, t := range a.Args {
		count(t)
	}
	for _, t := range a.Annotation {
		count(t)
	}
	return cost
}

// AddCostIDs is AddCost for the fact of rk with the id tuple ids, whose
// terms d has interned.
func (d *Database) AddCostIDs(rk core.RelKey, ids []uint32) int {
	if d.Rel(rk).Has(ids) {
		return 0
	}
	cost := 1
	if rk.Name == core.ACDom {
		return cost
	}
	dom := d.Rel(acdomKey)
	for i, id := range ids {
		// An explicitly added ACDom fact keeps insert from re-adding it.
		if d.intern.TermOf(id).IsConst() && d.acdom.get(id) == 0 && !slices.Contains(ids[:i], id) && !dom.Has(ids[i:i+1]) {
			cost++
		}
	}
	return cost
}

// Term returns the term with the given interned id.
func (d *Database) Term(id uint32) core.Term { return d.intern.TermOf(id) }

// Len returns the number of facts, including maintained ACDom facts.
func (d *Database) Len() int { return d.size }

// Relations returns the relation keys with at least one fact, sorted.
func (d *Database) Relations() []core.RelKey {
	out := make([]core.RelKey, 0, len(d.byRel))
	for k := range d.byRel {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		if out[i].Arity != out[j].Arity {
			return out[i].Arity < out[j].Arity
		}
		return out[i].AnnArity < out[j].AnnArity
	})
	return out
}

// Facts returns the facts of a relation in insertion order, freshly
// materialized: the caller owns the atoms.
func (d *Database) Facts(rk core.RelKey) []core.Atom {
	if r := d.byRel[rk]; r != nil {
		return d.appendFacts(nil, rk, r, nil)
	}
	return nil
}

// FactsWith returns the facts of rk whose flat position pos (arguments
// first, then annotation positions) equals t, in insertion order,
// freshly materialized.
func (d *Database) FactsWith(rk core.RelKey, pos int, t core.Term) []core.Atom {
	id, ok := d.intern.Lookup(t)
	if !ok {
		return nil
	}
	idxs := d.IndexWithID(rk, pos, id)
	if len(idxs) == 0 {
		return nil
	}
	return d.appendFacts(nil, rk, d.byRel[rk], idxs)
}

// appendFacts materializes the facts of rk at the ordinals ords (every
// fact in ordinal order when ords is nil) and appends them to dst. The
// atoms' terms share one backing array per call.
func (d *Database) appendFacts(dst []core.Atom, rk core.RelKey, r *Rel, ords []int32) []core.Atom {
	n := len(ords)
	if ords == nil {
		n = r.n
	}
	terms := make([]core.Term, n*r.w)
	for i := 0; i < n; i++ {
		ix := i
		if ords != nil {
			ix = int(ords[i])
		}
		dst = append(dst, d.atomOf(rk, r.Tuple(ix), terms[i*r.w:(i+1)*r.w]))
	}
	return dst
}

// Atom materializes the fact of rk with id tuple ids (arguments first,
// then annotation), whose terms d has interned; the caller owns it.
func (d *Database) Atom(rk core.RelKey, ids []uint32) core.Atom {
	return d.atomOf(rk, ids, make([]core.Term, len(ids)))
}

// atomOf builds the fact of rk with id tuple ids in terms (len(terms) ==
// len(ids)), which backs the atom's Args and Annotation.
func (d *Database) atomOf(rk core.RelKey, ids []uint32, terms []core.Term) core.Atom {
	for i, id := range ids {
		terms[i] = d.intern.TermOf(id)
	}
	a := core.Atom{Relation: rk.Name}
	if rk.Arity > 0 {
		a.Args = terms[:rk.Arity:rk.Arity]
	}
	if rk.AnnArity > 0 {
		a.Annotation = terms[rk.Arity:]
	}
	return a
}

// CountWithID returns how many facts of rk have the interned id at flat
// position pos.
func (d *Database) CountWithID(rk core.RelKey, pos int, id uint32) int {
	return len(d.Rel(rk).Posting(pos, id))
}

// UserFacts returns every fact except the maintained ACDom facts.
func (d *Database) UserFacts() []core.Atom {
	var out []core.Atom
	for _, rk := range d.Relations() {
		if rk.Name == core.ACDom {
			continue
		}
		out = d.appendFacts(out, rk, d.byRel[rk], nil)
	}
	return out
}

// Constants returns the active constant domain: all constants occurring in
// non-ACDom facts.
func (d *Database) Constants() []core.Term {
	out := make([]core.Term, 0)
	for pi, p := range d.acdom.dir {
		if p == nil {
			continue
		}
		for i, n := range p.v {
			if n > 0 {
				out = append(out, d.intern.TermOf(uint32((d.acdom.lo+pi)*acdomPage+i)))
			}
		}
	}
	core.SortTerms(out)
	return out
}

// Terms returns all terms (constants and nulls) occurring in non-ACDom
// facts.
func (d *Database) Terms() core.TermSet {
	s := make(core.TermSet)
	for rk, r := range d.byRel {
		if rk.Name == core.ACDom {
			continue
		}
		for ix := 0; ix < r.n; ix++ {
			for _, id := range r.Tuple(ix) {
				s.Add(d.intern.TermOf(id))
			}
		}
	}
	return s
}

// Nulls returns the labeled nulls occurring in the database.
func (d *Database) Nulls() []core.Term {
	s := make(core.TermSet)
	for t := range d.Terms() {
		if t.IsNull() {
			s.Add(t)
		}
	}
	return s.Sorted()
}

// Clone returns a snapshot of the database in O(#relations): the clone
// shares every relation, the intern table and the ACDom support counts
// with d, and whichever side first writes one of those structures
// replaces it with a private copy (see Snapshots in the package
// comment), so the two evolve independently. Interned ids are preserved
// exactly — a term has the same id in the clone as in the original, and
// InternEpoch carries over unchanged — so engines that cache id
// resolutions against the original can keep them against the clone.
// Clone only reads d's contents, so any number of goroutines may clone
// one database that nobody writes.
func (d *Database) Clone() *Database {
	d.intern.shared.Store(true)
	d.acdom.shared.Store(true)
	out := &Database{
		intern:    d.intern,
		byRel:     make(map[core.RelKey]*Rel, len(d.byRel)),
		size:      d.size,
		relWrites: d.relWrites,
		acdom:     d.acdom,
	}
	for rk, r := range d.byRel {
		r.shared.Store(true)
		out.byRel[rk] = r
	}
	if len(d.acdomX) > 0 {
		out.acdomX = make(map[core.Term]bool, len(d.acdomX))
		for t := range d.acdomX {
			out.acdomX[t] = true
		}
	}
	return out
}

// addACDom adds delta to the ACDom support count of the term with
// interned id and returns the count before. Counts shared with a
// snapshot are forked first, so the write copies one page of counts.
func (d *Database) addACDom(id uint32, delta int32) int32 {
	if d.acdom.shared.Load() {
		d.acdom = &acdomCounts{pages: d.acdom.fork()}
	}
	k := int(id & (acdomPage - 1))
	p := d.acdom.write(int(id>>acdomShift), acdomPage)
	p[k] += delta
	return p[k] - delta
}

// acdomCounts holds the ACDom support count of every interned term,
// indexed by interned id, acdomPage counts to a page; an id in an absent
// page counts zero. Once shared is set (by Clone) the counts are never
// written again.
type acdomCounts struct {
	shared atomic.Bool
	pages[int32]
}

func (c *acdomCounts) get(id uint32) int32 {
	return c.entry(int(id>>acdomShift), int(id&(acdomPage-1)))
}

// Retract removes a ground atom and reports whether it was present; see
// DeleteNotify for the maintained-ACDom side effects.
func (d *Database) Retract(a core.Atom) bool {
	removed, _ := d.DeleteNotify(a, nil)
	return removed
}

// DeleteNotify removes a ground atom and reports whether it was present,
// calling notify for every fact actually removed: the atom itself and
// any derived ACDom facts whose last supporting occurrence died with it.
// It is the delete counterpart of AddNotify: fixpoint maintenance uses
// the notifications to propagate ACDom retractions into its deletion
// frontier. Retracting a derived ACDom fact directly is a no-op while
// any fact still supports the constant (the fact is derived, not owned
// by the caller); retracting an explicitly added ACDom fact unpins it.
// Non-ground atoms are rejected with an error wrapping ErrNotGround.
func (d *Database) DeleteNotify(a core.Atom, notify func(core.Atom)) (bool, error) {
	if !a.IsGround() {
		return false, fmt.Errorf("%w: %s", ErrNotGround, a.String())
	}
	rk := a.Key()
	r := d.byRel[rk]
	if r == nil {
		return false, nil
	}
	var buf [16]uint32
	key, ok := d.lookupTuple(buf[:0], a)
	if !ok {
		return false, nil
	}
	if a.Relation == core.ACDom && rk.Arity == 1 && rk.AnnArity == 0 {
		delete(d.acdomX, a.Args[0])
		if d.acdom.get(key[0]) > 0 {
			return false, nil // still derived from a supporting fact
		}
	}
	if !d.removeFact(rk, r, key) {
		return false, nil
	}
	if notify != nil {
		notify(a)
	}
	if a.Relation != core.ACDom {
		for i, t := range a.Args {
			d.dropConstant(t, key[i], notify)
		}
		for i, t := range a.Annotation {
			d.dropConstant(t, key[len(a.Args)+i], notify)
		}
	}
	return true, nil
}

// dropConstant decrements the occurrence count of the term t with
// interned id after a supporting fact was removed, retracting the
// derived ACDom fact when the count reaches zero (unless it was
// explicitly pinned).
func (d *Database) dropConstant(t core.Term, id uint32, notify func(core.Atom)) {
	if !t.IsConst() {
		return
	}
	n := d.acdom.get(id)
	if n == 0 {
		return
	}
	d.addACDom(id, -1)
	if n > 1 || d.acdomX[t] {
		return // still supported, or an explicitly added ACDom fact
	}
	ac := core.NewAtom(core.ACDom, t)
	ark := ac.Key()
	r := d.byRel[ark]
	key := [1]uint32{id}
	if r == nil || !d.removeFact(ark, r, key[:]) {
		return
	}
	if notify != nil {
		notify(ac)
	}
}

// FactIDs appends the interned-id tuple of the ground atom a (arguments
// first, then annotation) to dst; ok is false when some term of a has
// never been interned, in which case a is not and never was in d.
// Incremental maintenance uses it to carry deleted facts as id tuples:
// retraction never un-interns terms, so a retracted fact still resolves.
func (d *Database) FactIDs(dst []uint32, a core.Atom) ([]uint32, bool) {
	return d.lookupTuple(dst, a)
}

// ACDomSupport returns the number of occurrences of t across all
// non-ACDom facts (arguments and annotation, with multiplicity) — the
// refcount behind the maintained ACDom(t) fact. Zero means t is not in
// the active domain.
func (d *Database) ACDomSupport(t core.Term) int {
	id, ok := d.intern.Lookup(t)
	if !ok {
		return 0
	}
	return int(d.acdom.get(id))
}

// ACDomPinned reports whether ACDom(t) was added explicitly by a caller,
// in which case the fact survives even with no supporting occurrence and
// must never be retracted by maintenance.
func (d *Database) ACDomPinned(t core.Term) bool { return d.acdomX[t] }

// TermOccursIn reports whether t occurs at any position of any fact of
// rk, via the per-position posting lists (no fact scan).
func (d *Database) TermOccursIn(rk core.RelKey, t core.Term) bool {
	id, ok := d.intern.Lookup(t)
	if !ok {
		return false
	}
	r := d.byRel[rk]
	if r == nil {
		return false
	}
	for p := 0; p < r.w; p++ {
		if len(r.Posting(p, id)) > 0 {
			return true
		}
	}
	return false
}

// FactsContaining returns every non-ACDom fact with t at some position
// (argument or annotation), in deterministic order: relations sorted as
// in Relations, fact ordinals ascending, each fact once. Incremental
// maintenance uses it to over-delete the remaining supports of a
// constant whose active-domain membership is no longer grounded.
func (d *Database) FactsContaining(t core.Term) []core.Atom {
	id, ok := d.intern.Lookup(t)
	if !ok {
		return nil
	}
	var out []core.Atom
	for _, rk := range d.Relations() {
		if rk.Name == core.ACDom {
			continue
		}
		r := d.byRel[rk]
		var ords []int32
		for p := 0; p < r.w; p++ {
			ords = append(ords, r.Posting(p, id)...)
		}
		if len(ords) == 0 {
			continue
		}
		// Compact drops the repeats of a fact with t at several positions.
		slices.Sort(ords)
		out = d.appendFacts(out, rk, r, slices.Compact(ords))
	}
	return out
}

// Restrict returns a new database with only the facts whose relation
// satisfies keep. ACDom is rebuilt from the kept facts.
func (d *Database) Restrict(keep func(core.RelKey) bool) *Database {
	out := New()
	for _, rk := range d.Relations() {
		if rk.Name == core.ACDom || !keep(rk) {
			continue
		}
		d.ForEachFact(rk, func(a core.Atom) bool {
			out.Add(a)
			return true
		})
	}
	return out
}

// GroundAtoms returns the facts of d whose terms are all constants,
// excluding ACDom. These are the "ground atomic consequences" compared by
// the paper's translations.
func (d *Database) GroundAtoms() []core.Atom {
	facts := d.UserFacts()
	out := facts[:0]
	for _, a := range facts {
		if constants(a.Args) && constants(a.Annotation) {
			out = append(out, a)
		}
	}
	return out
}

// constants reports whether every term of ts is a constant.
func constants(ts []core.Term) bool {
	for _, t := range ts {
		if !t.IsConst() {
			return false
		}
	}
	return true
}

// String renders the database, one fact per line, sorted, excluding
// maintained ACDom facts.
func (d *Database) String() string {
	var lines []string
	for _, rk := range d.Relations() {
		if rk.Name == core.ACDom {
			continue
		}
		d.ForEachFact(rk, func(a core.Atom) bool {
			lines = append(lines, a.String())
			return true
		})
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// SameGroundAtoms reports whether two databases contain exactly the same
// ground (all-constant) non-ACDom facts, and if not, returns an example
// fact present in one but not the other.
func SameGroundAtoms(a, b *Database) (bool, string) {
	for _, f := range a.GroundAtoms() {
		if !b.Has(f) {
			return false, "only in first: " + f.String()
		}
	}
	for _, f := range b.GroundAtoms() {
		if !a.Has(f) {
			return false, "only in second: " + f.String()
		}
	}
	return true, ""
}

// ForEachWithID calls fn for every fact of rk whose flat position pos
// has the interned id, in Facts order; fn returning false stops the
// iteration early. fn receives one scratch atom, rebuilt for each fact:
// its Args and Annotation are overwritten by the next call, so fn must
// copy them (or the atom, with Clone) to keep them.
func (d *Database) ForEachWithID(rk core.RelKey, pos int, id uint32, fn func(core.Atom) bool) {
	idxs := d.IndexWithID(rk, pos, id)
	if len(idxs) == 0 {
		return
	}
	r := d.byRel[rk]
	terms := make([]core.Term, r.w)
	for _, ix := range idxs {
		if !fn(d.atomOf(rk, r.Tuple(int(ix)), terms)) {
			return
		}
	}
}

// ForEachFact calls fn for every fact of rk, in Facts order; fn
// returning false stops. fn receives one scratch atom, as in
// ForEachWithID.
func (d *Database) ForEachFact(rk core.RelKey, fn func(core.Atom) bool) {
	r := d.byRel[rk]
	if r == nil {
		return
	}
	terms := make([]core.Term, r.w)
	for ix := 0; ix < r.n; ix++ {
		if !fn(d.atomOf(rk, r.Tuple(ix), terms)) {
			return
		}
	}
}
