// Package database implements an indexed store of ground atoms (over
// constants and labeled nulls), the "database" of Section 2 of the paper.
//
// Facts are deduplicated and indexed on interned term ids (see internTable):
// every term of every inserted atom is mapped to a dense uint32, and the
// per-relation seen-set and per-position indexes are keyed on packed id
// tuples. Because ids are bijective with terms and keys are scoped by
// relation key (name, annotation arity, arity), distinct atoms can never
// collide — unlike naive string serialization, where an unescaped
// separator inside a constant name conflates R("a,b") with R(a,b).
//
// # ACDom maintenance contract
//
// The store maintains the built-in active constant domain relation ACDom:
// ACDom(c) holds exactly for the constants that occur in some non-ACDom
// fact. Labeled nulls never enter ACDom. The contract has two sides:
//
//   - The Database derives ACDom facts: every Add of a non-ACDom fact
//     inserts ACDom(c) for each constant c of the fact (arguments and
//     annotation). Callers never need to — and, outside of tests, should
//     not — insert ACDom facts themselves. AddNotify reports the derived
//     ACDom facts to the caller, so fixpoint engines can propagate them
//     into their semi-naive deltas: a derived fact that introduces a fresh
//     constant silently extends ACDom, and an evaluator that does not
//     treat the new ACDom fact as delta will miss derivations of
//     ACDom-reading rules.
//   - Evaluators must schedule ACDom-reading rules no earlier than rules
//     that can introduce new head constants. datalog.Stratify implements
//     this with an implicit positive dependency edge from every head
//     relation to ACDom, so ACDom's stratum is at least the stratum of
//     every relation whose derivation can grow the active domain.
package database

import (
	"errors"
	"fmt"
	"sort"
	"strings"

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
	byRel  map[core.RelKey]*relation
	size   int
	// acdom counts, per constant, its occurrences across all non-ACDom
	// facts (arguments and annotation, with multiplicity). A constant is
	// in the active domain exactly while its count is positive; the count
	// is what lets retraction drop ACDom(c) precisely when the last
	// supporting occurrence dies.
	acdom map[core.Term]int
	// acdomX marks constants whose ACDom fact was added explicitly by a
	// caller (rare, test-only): those facts survive even when no fact
	// supports them.
	acdomX map[core.Term]bool
}

// New returns an empty database.
func New() *Database {
	return &Database{
		intern: newInternTable(),
		byRel:  make(map[core.RelKey]*relation),
		acdom:  make(map[core.Term]int),
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
	if !a.IsGround() {
		return false, fmt.Errorf("%w: %s", ErrNotGround, a.String())
	}
	if !d.insert(a) {
		return false, nil
	}
	if notify != nil {
		notify(a)
	}
	if a.Relation != core.ACDom {
		for _, t := range a.Args {
			d.noteConstant(t, notify)
		}
		for _, t := range a.Annotation {
			d.noteConstant(t, notify)
		}
	} else if len(a.Args) == 1 && len(a.Annotation) == 0 && a.Args[0].IsConst() {
		// An explicitly added ACDom fact is pinned: it is not retracted
		// when its constant loses its last supporting occurrence.
		if d.acdomX == nil {
			d.acdomX = make(map[core.Term]bool)
		}
		d.acdomX[a.Args[0]] = true
	}
	return true, nil
}

func (d *Database) noteConstant(t core.Term, notify func(core.Atom)) {
	if !t.IsConst() {
		return
	}
	if n := d.acdom[t]; n > 0 {
		d.acdom[t] = n + 1
		return
	}
	d.acdom[t] = 1
	ac := core.NewAtom(core.ACDom, t)
	if d.insert(ac) && notify != nil {
		notify(ac)
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

func (d *Database) insert(a core.Atom) bool {
	rk := a.Key()
	r := d.byRel[rk]
	if r == nil {
		r = newRelation(rk)
		d.byRel[rk] = r
	}
	var buf [16]uint32
	key := d.internTuple(buf[:0], a)
	if r.seen.has(r, key) {
		return false
	}
	ix := len(r.facts)
	r.facts = append(r.facts, a)
	r.ids = append(r.ids, key...)
	r.seen.add(r, ix)
	for p, id := range key {
		m := r.index[p]
		if m == nil {
			m = make(map[uint32][]int32)
			r.index[p] = m
		}
		m[id] = append(m[id], int32(ix))
	}
	d.size++
	return true
}

// IDTuples returns the interned-id tuples of rk's facts as one flat
// slice, rk.Arity+rk.AnnArity ids per fact, in the same order as Facts.
// The returned slice must not be modified. Together with ForEachIndexWithID
// it lets fixpoint engines join entirely in id space.
func (d *Database) IDTuples(rk core.RelKey) []uint32 {
	if r := d.byRel[rk]; r != nil {
		return r.ids
	}
	return nil
}

// ForEachIndexWithID calls fn with the Facts index of every fact of rk
// whose flat position pos has the interned id; fn returning false stops
// the iteration early.
func (d *Database) ForEachIndexWithID(rk core.RelKey, pos int, id uint32, fn func(int) bool) {
	r := d.byRel[rk]
	if r == nil || pos < 0 || pos >= len(r.index) {
		return
	}
	for _, ix := range r.index[pos][id] {
		if !fn(int(ix)) {
			return
		}
	}
}

// IndexWithID returns the Facts ordinals of every fact of rk whose flat
// position pos has the interned id, in insertion order. The returned
// slice must not be modified.
func (d *Database) IndexWithID(rk core.RelKey, pos int, id uint32) []int32 {
	r := d.byRel[rk]
	if r == nil || pos < 0 || pos >= len(r.index) {
		return nil
	}
	return r.index[pos][id]
}

// Has reports whether the ground atom is in the database.
func (d *Database) Has(a core.Atom) bool {
	var buf [16]uint32
	key, ok := d.lookupTuple(buf[:0], a)
	if !ok {
		return false
	}
	r := d.byRel[a.Key()]
	return r != nil && r.seen.has(r, key)
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
func (d *Database) SeenIDs(rk core.RelKey, ids []uint32) bool {
	r := d.byRel[rk]
	return r != nil && len(ids) == r.w && r.seen.has(r, ids)
}

// TermID returns the interned id of t; ok is false when t occurs in no
// fact of the database. Ids are only meaningful within this database.
func (d *Database) TermID(t core.Term) (uint32, bool) { return d.intern.Lookup(t) }

// InternTerm interns t into the database's term table without inserting
// any fact, returning its dense id. Engines that mint fresh terms (the
// chase's labeled nulls) use it to obtain the term's id before the first
// fact containing it is added, so id-keyed side tables can be indexed
// immediately.
func (d *Database) InternTerm(t core.Term) uint32 { return d.intern.Intern(t) }

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
		if !t.IsConst() || d.acdom[t] > 0 {
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

// Facts returns the facts of a relation in insertion order. The returned
// slice must not be modified.
func (d *Database) Facts(rk core.RelKey) []core.Atom {
	if r := d.byRel[rk]; r != nil {
		return r.facts
	}
	return nil
}

// FactsWith returns the facts of rk whose flat position pos (arguments
// first, then annotation positions) equals t. The returned slice of atoms
// is freshly allocated.
func (d *Database) FactsWith(rk core.RelKey, pos int, t core.Term) []core.Atom {
	id, ok := d.intern.Lookup(t)
	if !ok {
		return nil
	}
	idxs := d.IndexWithID(rk, pos, id)
	if len(idxs) == 0 {
		return nil
	}
	out := make([]core.Atom, len(idxs))
	facts := d.byRel[rk].facts
	for i, ix := range idxs {
		out[i] = facts[ix]
	}
	return out
}

// CountWithID returns how many facts of rk have the interned id at flat
// position pos.
func (d *Database) CountWithID(rk core.RelKey, pos int, id uint32) int {
	return len(d.IndexWithID(rk, pos, id))
}

// UserFacts returns every fact except the maintained ACDom facts.
func (d *Database) UserFacts() []core.Atom {
	var out []core.Atom
	for _, rk := range d.Relations() {
		if rk.Name == core.ACDom {
			continue
		}
		out = append(out, d.byRel[rk].facts...)
	}
	return out
}

// Constants returns the active constant domain: all constants occurring in
// non-ACDom facts.
func (d *Database) Constants() []core.Term {
	out := make([]core.Term, 0, len(d.acdom))
	for t := range d.acdom {
		out = append(out, t)
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
		for _, a := range r.facts {
			for _, t := range a.Args {
				s.Add(t)
			}
			for _, t := range a.Annotation {
				s.Add(t)
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

// Clone returns a deep copy of the database as an id-space copy: the
// intern table, fact arrays, posting lists, seen-sets and ACDom counts
// are copied directly, with no term re-hashing or re-interning. Interned
// ids are preserved exactly — a term has the same id in the clone as in
// the original, and InternEpoch carries over unchanged — so engines that
// cache id resolutions against the original can keep them against the
// clone. Stored atoms are shared (they are immutable by the package's
// contract: the database never mutates a stored atom, and callers must
// not either). This is the snapshot hot path of versioned mutable
// databases: cost is proportional to the index footprint, not to
// re-inserting every fact.
func (d *Database) Clone() *Database {
	out := &Database{
		intern: d.intern.clone(),
		byRel:  make(map[core.RelKey]*relation, len(d.byRel)),
		size:   d.size,
		acdom:  make(map[core.Term]int, len(d.acdom)),
	}
	for rk, r := range d.byRel {
		out.byRel[rk] = r.clone()
	}
	for t, n := range d.acdom {
		out.acdom[t] = n
	}
	if len(d.acdomX) > 0 {
		out.acdomX = make(map[core.Term]bool, len(d.acdomX))
		for t := range d.acdomX {
			out.acdomX[t] = true
		}
	}
	return out
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
		t := a.Args[0]
		delete(d.acdomX, t)
		if d.acdom[t] > 0 {
			return false, nil // still derived from a supporting fact
		}
	}
	if !r.remove(key) {
		return false, nil
	}
	d.size--
	if len(r.facts) == 0 {
		delete(d.byRel, rk)
	}
	if notify != nil {
		notify(a)
	}
	if a.Relation != core.ACDom {
		for _, t := range a.Args {
			d.dropConstant(t, notify)
		}
		for _, t := range a.Annotation {
			d.dropConstant(t, notify)
		}
	}
	return true, nil
}

// dropConstant decrements the occurrence count of a constant after a
// supporting fact was removed, retracting the derived ACDom fact when
// the count reaches zero (unless it was explicitly pinned).
func (d *Database) dropConstant(t core.Term, notify func(core.Atom)) {
	if !t.IsConst() {
		return
	}
	n := d.acdom[t]
	if n > 1 {
		d.acdom[t] = n - 1
		return
	}
	if n == 0 {
		return
	}
	delete(d.acdom, t)
	if d.acdomX[t] {
		return // explicitly added ACDom fact survives its supports
	}
	ac := core.NewAtom(core.ACDom, t)
	ark := ac.Key()
	r := d.byRel[ark]
	if r == nil {
		return
	}
	var buf [4]uint32
	key, ok := d.lookupTuple(buf[:0], ac)
	if !ok || !r.remove(key) {
		return
	}
	d.size--
	if len(r.facts) == 0 {
		delete(d.byRel, ark)
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
func (d *Database) ACDomSupport(t core.Term) int { return d.acdom[t] }

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
		if len(r.index[p][id]) > 0 {
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
			ords = append(ords, r.index[p][id]...)
		}
		if len(ords) == 0 {
			continue
		}
		sort.Slice(ords, func(i, j int) bool { return ords[i] < ords[j] })
		prev := int32(-1)
		for _, ix := range ords {
			if ix == prev {
				continue // t at several positions of one fact
			}
			prev = ix
			out = append(out, r.facts[ix])
		}
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
		for _, a := range d.byRel[rk].facts {
			out.Add(a)
		}
	}
	return out
}

// GroundAtoms returns the facts of d whose terms are all constants,
// excluding ACDom. These are the "ground atomic consequences" compared by
// the paper's translations.
func (d *Database) GroundAtoms() []core.Atom {
	var out []core.Atom
	for _, a := range d.UserFacts() {
		allConst := true
		for _, t := range a.Args {
			if !t.IsConst() {
				allConst = false
				break
			}
		}
		if allConst {
			for _, t := range a.Annotation {
				if !t.IsConst() {
					allConst = false
					break
				}
			}
		}
		if allConst {
			out = append(out, a)
		}
	}
	return out
}

// String renders the database, one fact per line, sorted, excluding
// maintained ACDom facts.
func (d *Database) String() string {
	facts := d.UserFacts()
	lines := make([]string, len(facts))
	for i, a := range facts {
		lines[i] = a.String()
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
// has the interned id, without allocating; fn returning false stops the
// iteration early.
func (d *Database) ForEachWithID(rk core.RelKey, pos int, id uint32, fn func(core.Atom) bool) {
	idxs := d.IndexWithID(rk, pos, id)
	if len(idxs) == 0 {
		return
	}
	facts := d.byRel[rk].facts
	for _, ix := range idxs {
		if !fn(facts[ix]) {
			return
		}
	}
}

// ForEachFact calls fn for every fact of rk; fn returning false stops.
func (d *Database) ForEachFact(rk core.RelKey, fn func(core.Atom) bool) {
	for _, a := range d.Facts(rk) {
		if !fn(a) {
			return
		}
	}
}
