package server

import (
	"sync"

	"guardedrules/internal/kbcache"
)

// viewKey names a materialized view of a DB entry: a theory and one of
// its CQ plan keys.
type viewKey struct{ theory, plan string }

// view is one CQ plan's fixpoint maintained over a DB entry's versions:
// the engine handle each batch advances once, and the subscriptions fed
// the one answer delta it computes. Guarded by the entry's mu. Readers
// never touch it; they read the immutable versionView the entry's
// current version carries.
type view struct {
	mq   *kbcache.MaintainedQuery
	subs map[*subscription]struct{}
}

// versionView is a view's fixpoint at one version.
type versionView struct {
	*kbcache.View

	bodyOnce sync.Once
	body     []byte
}

// responseBody returns the /v1/query response of a read served from the
// view at its version, encoded on the first call only: every field of it
// is fixed by the view and the version.
func (vv *versionView) responseBody(res *kbcache.QueryResult, version uint64) []byte {
	vv.bodyOnce.Do(func() {
		// The response holds only strings, bools and numbers: it always
		// encodes.
		vv.body, _ = encodeJSON(newQueryResponse(res, version, true))
	})
	return vv.body
}

// view returns the view under k materialized at exactly this version,
// or nil.
func (v *dbVersion) view(k viewKey) *versionView {
	vv, _ := v.views.Load(k)
	found, _ := vv.(*versionView)
	return found
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
func (s *Server) installView(ent *dbEntry, at *dbVersion, k viewKey, mq *kbcache.MaintainedQuery) {
	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.views == nil || ent.cur.Load() != at {
		return
	}
	if _, ok := ent.views[k]; ok {
		return
	}
	s.installViewLocked(ent, k, mq)
	// MaintainCQ counted the handles subscriptions build; this one came
	// from a read.
	s.store.Metrics().MaintainedHandles.Add(1)
}

// installViewLocked makes mq, positioned at the entry's current version,
// the entry's view under k (caller holds ent.mu, and ent.views has no
// view under k). Views whose plan is no longer
// cached lose their place first, so the views an entry holds stay
// bounded by the KB and plan caches.
func (s *Server) installViewLocked(ent *dbEntry, k viewKey, mq *kbcache.MaintainedQuery) *view {
	for key, v := range ent.views {
		if len(v.subs) == 0 && !s.store.Live(v.mq) {
			s.dropViewLocked(ent, key, nil)
		}
	}
	v := &view{mq: mq, subs: make(map[*subscription]struct{})}
	ent.views[k] = v
	ent.cur.Load().views.Store(k, &versionView{View: mq.View()})
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
