package server

import (
	"sync"
	"sync/atomic"

	"guardedrules/internal/kbcache"
)

// viewKey names a materialized view of a DB entry: a theory and the
// view's key, kbcache.BaseKey for the theory's base view or the CQ plan
// key of a plan view.
type viewKey struct{ theory, plan string }

// view is one fixpoint maintained over a DB entry's versions: the engine
// handle each batch advances once, and the subscriptions whose selectors
// filter the one fact delta it computes. Guarded by the entry's mu.
// Readers never touch it; they read the immutable versionView the
// entry's current version carries.
type view struct {
	mv   *kbcache.MaintainedView
	subs map[*subscription]struct{}
}

// versionView is a view's fixpoint at one version, with the /v1/query
// bodies of the reads it served there.
type versionView struct {
	*kbcache.View

	bodies sync.Map     // selector key → *keptBody
	kept   atomic.Int32 // entries in bodies
}

// keptBody is one read's /v1/query response, encoded once.
type keptBody struct {
	once sync.Once
	body []byte
}

// responseBody returns the /v1/query response of sel's read from the
// view at its version. Every field of it is fixed by the selector, the
// view and the version, so it is encoded on the first read only. At
// most limit selectors keep theirs; reads of further ones encode their
// own.
func (vv *versionView) responseBody(sel *kbcache.Selector, version uint64, limit int) []byte {
	encode := func() []byte {
		// The response holds only strings, bools and numbers: it always
		// encodes.
		b, _ := encodeJSON(newQueryResponse(vv.Read(sel), version, true))
		return b
	}
	slot, ok := vv.bodies.Load(sel.Key())
	if !ok {
		if int(vv.kept.Load()) >= limit {
			return encode()
		}
		var loaded bool
		if slot, loaded = vv.bodies.LoadOrStore(sel.Key(), &keptBody{}); !loaded {
			vv.kept.Add(1)
		}
	}
	k := slot.(*keptBody)
	encoded := false
	k.once.Do(func() { k.body, encoded = encode(), true })
	if !encoded {
		vv.CountRead()
	}
	return k.body
}

// view returns the view under k materialized at exactly this version,
// or nil.
func (v *dbVersion) view(k viewKey) *versionView {
	vv, _ := v.views.Load(k)
	found, _ := vv.(*versionView)
	return found
}

// noted reports whether a read of the view under k at this version has
// been noted.
func (v *dbVersion) noted(k viewKey) bool {
	_, ok := v.readOnce.Load(k)
	return ok
}

// noteRead notes a read of the view under k at version v. Notes of
// views whose KB or plan the store no longer caches are dropped first,
// so the notes, like the views, stay bounded by the KB and plan caches.
func (s *Server) noteRead(v *dbVersion, k viewKey) {
	if v.noted(k) {
		return
	}
	v.readOnce.Range(func(key, _ any) bool {
		if n := key.(viewKey); !s.store.Cached(n.theory, n.plan) {
			v.readOnce.Delete(key)
		}
		return true
	})
	v.readOnce.Store(k, struct{}{})
}

// current returns the entry's published version, waiting out a
// concurrent load's setup. Nil means that setup failed and the entry
// was unpublished.
func (e *dbEntry) current() *dbVersion {
	if v := e.cur.Load(); v != nil {
		return v
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cur.Load()
}

// subscribersLocked counts the entry's live subscriptions (caller holds
// e.mu).
func (e *dbEntry) subscribersLocked() int {
	n := 0
	for _, v := range e.views {
		n += len(v.subs)
	}
	return n
}

// installView keeps the fixpoint a read evaluated at version at as the
// entry's view under k. It does so only while the entry is still at that
// version and has no view under k yet: otherwise the fixpoint reflects a
// version a batch has already replaced, or duplicates a view a
// concurrent read or subscription installed first.
func (s *Server) installView(ent *dbEntry, at *dbVersion, k viewKey, mv *kbcache.MaintainedView) {
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.views == nil || ent.cur.Load() != at {
		return
	}
	if _, ok := ent.views[k]; ok {
		return
	}
	s.installViewLocked(ent, k, mv)
	// Maintain counted the handles subscriptions build; this one came
	// from a read.
	s.store.Metrics().MaintainedHandles.Add(1)
}

// installViewLocked makes mv, positioned at the entry's current version,
// the entry's view under k (caller holds ent.mu, and ent.views has no
// view under k). Views whose KB or plan is no longer cached lose their
// place first, so the views an entry holds stay bounded by the KB and
// plan caches.
func (s *Server) installViewLocked(ent *dbEntry, k viewKey, mv *kbcache.MaintainedView) *view {
	for key, v := range ent.views {
		if len(v.subs) == 0 && !s.store.Cached(key.theory, key.plan) {
			s.dropViewLocked(ent, key, nil)
		}
	}
	v := &view{mv: mv, subs: make(map[*subscription]struct{})}
	ent.views[k] = v
	ent.cur.Load().views.Store(k, &versionView{View: mv.View()})
	s.views.Add(1)
	s.viewBuilds.Add(1)
	return v
}

// dropViewLocked removes the entry's view under k, dropping its
// subscribers with cause (caller holds ent.mu). Reads already holding
// the view's fixpoint finish on it.
func (s *Server) dropViewLocked(ent *dbEntry, k viewKey, cause error) {
	v := ent.views[k]
	for sub := range v.subs {
		s.dropSubLocked(sub, cause)
	}
	delete(ent.views, k)
	ent.cur.Load().views.Delete(k)
	s.views.Add(-1)
	s.viewDrops.Add(1)
}
