package database

import "guardedrules/internal/core"

// internTable maps terms to dense uint32 ids and back. Each Database owns one:
// facts are deduplicated and indexed on interned id tuples instead of
// serialized strings, which is both faster (integer hashing, no
// serialization on the hot path) and collision-free by construction — ids
// are bijective with terms, and tuple keys are scoped per relation key, so
// arity and the args/annotation boundary can never be confused.
//
// An internTable is not safe for concurrent mutation; Lookup and TermOf are
// read-only and may be called concurrently with each other (but not with
// Intern). The Database write path is single-writer, which upholds this.
type internTable struct {
	ids   map[core.Term]uint32
	terms []core.Term
}

// newInternTable returns an empty interner.
func newInternTable() *internTable {
	return &internTable{ids: make(map[core.Term]uint32)}
}

// Intern returns the id of t, assigning the next dense id if t is new.
func (in *internTable) Intern(t core.Term) uint32 {
	if id, ok := in.ids[t]; ok {
		return id
	}
	id := uint32(len(in.terms))
	in.ids[t] = id
	in.terms = append(in.terms, t)
	return id
}

// clone returns a deep copy of the interner with identical id
// assignments, so terms resolve to the same ids in the copy.
func (in *internTable) clone() *internTable {
	ids := make(map[core.Term]uint32, len(in.ids))
	for t, id := range in.ids {
		ids[t] = id
	}
	return &internTable{ids: ids, terms: append([]core.Term(nil), in.terms...)}
}

// Lookup returns the id of t without interning; ok is false when t has
// never been interned.
func (in *internTable) Lookup(t core.Term) (uint32, bool) {
	id, ok := in.ids[t]
	return id, ok
}

// TermOf returns the term with the given id; it panics on ids never
// returned by Intern.
func (in *internTable) TermOf(id uint32) core.Term { return in.terms[id] }

// Len returns the number of interned terms.
func (in *internTable) Len() int { return len(in.terms) }
