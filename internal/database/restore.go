package database

import "guardedrules/internal/core"

// Restore hooks for the durable segment store (internal/store/segment).
// A snapshot of a Database is a pure state dump: terms in id order, facts
// per relation in enumeration order, ACDom support counts, and the pin
// set. Loading a dump must not re-run the ACDom derivation of AddNotify —
// derivation order and swap-remove history are already baked into the
// dumped enumeration orders — so these methods write the state back
// directly. Engines never call them.

// RestoreFact inserts a ground fact without any ACDom side effects: no
// support counting, no derived ACDom insertion, no pinning. It reports
// whether the fact was absent. Callers are responsible for restoring
// support counts (SetACDomSupport) and pins (PinACDom) alongside.
func (d *Database) RestoreFact(a core.Atom) bool {
	return d.insert(a)
}

// SetACDomSupport sets the ACDom support count of t, overwriting the
// derived refcount. A count of zero removes the entry.
func (d *Database) SetACDomSupport(t core.Term, n int) {
	if n <= 0 {
		delete(d.acdom, t)
		return
	}
	d.acdom[t] = n
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
