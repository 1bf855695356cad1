package database

import "guardedrules/internal/core"

// Statistics surface: the cardinality counters the cost-based join
// planner (internal/hom.PlanBody) reads. All of them are maintained
// incrementally by insert — reading them is O(1) — and they describe the
// database exactly, not an estimate: RelSize is the fact count of a
// relation, DistinctAt the number of distinct interned ids occurring at
// one flat position, CountWithID (database.go) the exact length of one
// index posting list.

// RelSize returns the number of facts of rk (0 for an absent relation).
func (d *Database) RelSize(rk core.RelKey) int {
	if r := d.byRel[rk]; r != nil {
		return len(r.facts)
	}
	return 0
}

// DistinctAt returns the number of distinct interned ids occurring at
// flat position pos (arguments first, then annotation) of rk's facts.
// RelSize/DistinctAt is the planner's average posting-list length for a
// position bound to a yet-unknown id.
func (d *Database) DistinctAt(rk core.RelKey, pos int) int {
	r := d.byRel[rk]
	if r == nil || pos < 0 || pos >= len(r.index) {
		return 0
	}
	return len(r.index[pos])
}

// InternEpoch returns a counter that changes exactly when a new term is
// interned (by an Add or InternTerm). Engines that resolve compiled
// constants against the database once per round use it to skip the
// re-resolution entirely when no new term appeared: every TermID answer
// is unchanged while the epoch is unchanged. The counter only grows.
func (d *Database) InternEpoch() int { return d.intern.Len() }
