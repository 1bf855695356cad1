package database

import (
	"math"

	"guardedrules/internal/core"
)

// Restore hooks for the durable segment store (internal/store/segment).
// A snapshot of a Database is a pure state dump: terms in id order, facts
// per relation in enumeration order, ACDom support counts, and the pin
// set. Loading a dump must not re-run the ACDom derivation of AddNotify —
// derivation order and swap-remove history are already baked into the
// dumped enumeration orders — so these methods write the state back
// directly. Engines never call them, except that incremental
// maintenance pins (PinACDom) an explicit base ACDom fact its fixpoint
// already derives.

// RestoreFact inserts a ground fact without any ACDom side effects: no
// support counting, no derived ACDom insertion, no pinning. It reports
// whether the fact was absent. Callers are responsible for restoring
// support counts (SetACDomSupport) and pins (PinACDom) alongside.
func (d *Database) RestoreFact(a core.Atom) bool {
	var buf [16]uint32
	_, added := d.insert(buf[:0], a)
	return added
}

// SetACDomSupport sets the ACDom support count of t, overwriting the
// derived refcount. A count of zero removes the entry; counts saturate at
// math.MaxInt32.
func (d *Database) SetACDomSupport(t core.Term, n int) {
	id, ok := d.intern.Lookup(t)
	if !ok {
		if n <= 0 {
			return
		}
		id = d.InternTerm(t)
	}
	d.ownACDom().set(id, int32(min(max(n, 0), math.MaxInt32)))
}

// PinACDom marks ACDom(t) as explicitly added: it survives the loss of
// its last supporting occurrence. The ACDom fact itself is not inserted;
// restore it with RestoreFact.
func (d *Database) PinACDom(t core.Term) {
	if d.acdomX == nil {
		d.acdomX = make(map[core.Term]bool)
	}
	d.acdomX[t] = true
}
