package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"guardedrules/internal/core"
	"guardedrules/internal/datalog"
	"guardedrules/internal/kb"
	"guardedrules/internal/kbcache"
	"guardedrules/internal/parser"
)

// subscription is one live SSE stream over a materialized view. The
// owning dbEntry's mutex is the only writer coordination: batches send
// events (and close ch when dropping the subscriber) while holding it,
// and the streaming goroutine unregisters under it, so a send can never
// race a close.
//
// errCh is the reserved lane for the terminal error frame: ch may be
// full at drop time (a slow consumer is dropped precisely because it
// is), so a drop's cause rides a separate 1-slot channel that the
// stream goroutine flushes after ch closes. That is what makes the
// documented contract — dropped subscribers see an error frame, never a
// silent close — hold unconditionally.
type subscription struct {
	view  *view
	sel   *kbcache.Selector
	ch    chan subEvent
	errCh chan subEvent
}

// subEvent is one pre-marshaled SSE frame.
type subEvent struct {
	event string
	data  []byte
}

type factsRequest struct {
	// Add and Retract are fact lists in theory syntax ("E(a,b). B(c).");
	// retractions apply before additions, so a retract and an add of the
	// same fact in one batch leave it present.
	Add     string `json:"add,omitempty"`
	Retract string `json:"retract,omitempty"`

	// Chaos levers (rejected unless Config.Chaos): the injected budget
	// governs view maintenance, so a failing view is dropped, its
	// subscribers with an error event, while the batch still commits.
	FailAt  int64 `json:"fail_at,omitempty"`
	PanicAt int64 `json:"panic_at,omitempty"`
}

func (q factsRequest) wantsChaos() bool { return q.FailAt > 0 || q.PanicAt > 0 }

type factsResponse struct {
	Version     uint64 `json:"version"`
	Added       int    `json:"added"`
	Retracted   int    `json:"retracted"`
	Facts       int    `json:"facts"`
	Subscribers int    `json:"subscribers"`
}

// handleFacts applies one mutation batch to a mutable DB: clone the
// current version in id-space, retract then add, advance every
// materialized view to the new version, atomically publish it, and fan
// each view's answer delta out to its subscribers. In-flight queries
// keep the snapshot they started on; queries admitted after the swap
// see the whole batch or none of it.
func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request) {
	var req factsRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.wantsChaos() && !s.cfg.Chaos {
		s.writeError(w, http.StatusBadRequest,
			errors.New("fault-injection fields require a server started with chaos enabled"))
		return
	}
	adds, err := parser.ParseFacts(req.Add)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("add: %w", err))
		return
	}
	dels, err := parser.ParseFacts(req.Retract)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("retract: %w", err))
		return
	}
	if len(adds) == 0 && len(dels) == 0 {
		s.writeError(w, http.StatusBadRequest, errors.New("empty batch: set \"add\" and/or \"retract\""))
		return
	}
	s.mu.Lock()
	ent, ok := s.dbs.Get(r.PathValue("id"))
	s.mu.Unlock()
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown db id %q (evicted or never loaded)", r.PathValue("id")))
		return
	}
	// A batch replays incremental maintenance for every view —
	// combined-complexity work, through the narrow gate.
	release, ok := s.admit(w, r, s.heavy, "heavy")
	if !ok {
		return
	}
	defer release()

	opts := kbcache.QueryOptions{Budget: s.requestBudget(r)}
	opts.Budget.FailAtCheckpoint = req.FailAt
	opts.Budget.PanicAtCheckpoint = req.PanicAt

	ent.mu.Lock()
	defer ent.mu.Unlock()
	cur := ent.cur.Load()
	if cur == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown db id %q (its load failed)", ent.id))
		return
	}
	var next *dbVersion
	var added, retracted int
	if ent.seg != nil {
		// Durable path: apply the batch to the segment store (which
		// journals each op) and commit BEFORE publishing — an
		// acknowledged batch is on disk, and a crash at any point loses
		// at most a batch whose response the client never saw. Readers
		// get an immutable clone of the committed state; the store's own
		// mirror never escapes this lock.
		for _, f := range dels {
			if ent.seg.Retract(f) {
				retracted++
			}
		}
		for _, f := range adds {
			if ent.seg.Add(f) {
				added++
			}
		}
		ver, err := ent.seg.Commit()
		if err != nil {
			// The store latches its first write error and refuses further
			// writes, so the in-memory mirror cannot silently drift from
			// disk: this and every later batch fail until the DB is
			// reopened. Nothing was published; readers keep the last
			// committed version.
			s.writeError(w, http.StatusInternalServerError,
				fmt.Errorf("durable commit failed, batch not applied: %w", err))
			return
		}
		db := ent.seg.Clone()
		next = &dbVersion{db: db, version: ver, facts: userFacts(db)}
	} else {
		work := cur.db.Clone()
		for _, f := range dels {
			if work.Retract(f) {
				retracted++
			}
		}
		for _, f := range adds {
			if work.Add(f) {
				added++
			}
		}
		next = &dbVersion{db: work, version: cur.version + 1, facts: userFacts(work)}
	}
	// Advance every view to next before publishing it, so the first
	// reader of next already finds them. A view without subscribers is
	// dropped instead: batch cost stays bounded by the subscriptions, and
	// reads at next rebuild it. Deltas go out only after the commit
	// below.
	type advanced struct {
		key viewKey
		d   datalog.Delta
		err error
	}
	var batch []advanced
	for key, v := range ent.views {
		if len(v.subs) == 0 {
			s.dropViewLocked(ent, key, nil)
			continue
		}
		d, err := v.mv.Apply(adds, dels, opts)
		if err == nil {
			next.views.Store(key, &versionView{View: v.mv.View()})
		}
		batch = append(batch, advanced{key, d, err})
	}
	// Commit under s.mu with a membership re-check: the LRU may have
	// evicted this entry between the handler's lookup and here, and a
	// batch committed to an orphaned entry would return 200 while the
	// write is silently lost. Eviction also runs under s.mu, so it lands
	// strictly before this check (→ 409, nothing written) or strictly
	// after the version swap (→ the write happened, then the whole DB was
	// evicted and its subscribers were dropped with an error frame).
	// Lock order is ent.mu → s.mu everywhere; eviction teardown takes
	// victim.mu only after releasing s.mu.
	s.mu.Lock()
	if live, ok := s.dbs.Get(ent.id); !ok || live != ent {
		// Gone, or evicted and re-loaded as a fresh entry: either way this
		// handle is an orphan and publishing to it would lie. On a durable
		// entry the journal commit above already happened — that is
		// harmless-to-good: the batch is on disk and will be served when
		// the DB is reopened, it just is not being served now.
		s.mu.Unlock()
		// The views were advanced past the version the entry still
		// serves; the orphan never serves again, so drop them.
		for key := range ent.views {
			s.dropViewLocked(ent, key, fmt.Errorf("db %q evicted; stream closed", ent.id))
		}
		msg := "db id %q was evicted while the batch was being prepared; nothing was written"
		if ent.seg != nil {
			msg = "db id %q was evicted while the batch was being prepared; the batch was durably journaled and will be visible when the db is reopened, but is not being served"
		}
		s.writeError(w, http.StatusConflict, fmt.Errorf(msg, ent.id))
		return
	}
	ent.cur.Store(next)
	s.mu.Unlock()
	s.factBatches.Add(1)
	s.factsAdded.Add(int64(added))
	s.factsRetracted.Add(int64(retracted))

	// Fan each view's delta out while still holding the entry lock, so
	// subscribers see batches in commit order: each subscriber's selector
	// filters the view's one fact delta, once per distinct query. A view
	// whose maintenance failed (budget, contained engine panic) is
	// dropped with its subscribers, each with an error event; the
	// committed batch is unaffected.
	type event struct {
		ev  subEvent
		err error
	}
	for _, a := range batch {
		if a.err != nil {
			s.logEnginePanic("maintenance", a.err)
			s.dropViewLocked(ent, a.key, fmt.Errorf("maintenance failed at version %d: %w", next.version, a.err))
			continue
		}
		events := make(map[string]event)
		for sub := range ent.views[a.key].subs {
			e, ok := events[sub.sel.Key()]
			if !ok {
				d := sub.sel.Delta(a.d)
				e.ev, e.err = marshalEvent("delta", deltaEvent{
					Version: next.version,
					Added:   termRows(d.Added),
					Removed: termRows(d.Removed),
				})
				events[sub.sel.Key()] = e
			}
			if e.err != nil {
				s.dropSubLocked(sub, e.err)
				continue
			}
			select {
			case sub.ch <- e.ev:
				s.subsEvents.Add(1)
			default:
				// Slow consumer: its buffer is full, so its answer stream
				// would silently skip a delta — drop it instead of lying.
				// The cause rides the reserved errCh slot, so the client
				// still gets a terminal error frame after draining the
				// buffer.
				s.dropSubLocked(sub,
					fmt.Errorf("slow consumer: delta buffer full at version %d; stream incomplete", next.version))
			}
		}
	}
	s.writeJSON(w, http.StatusOK, factsResponse{
		Version:     next.version,
		Added:       added,
		Retracted:   retracted,
		Facts:       next.facts,
		Subscribers: ent.subscribersLocked(),
	})
}

// dropSubLocked removes a subscription from its view (caller holds the
// entry's mu). The cause goes into the subscription's reserved 1-slot
// error channel — never the delta channel, which may be full — and
// closing ch tells the stream goroutine to drain remaining deltas, emit
// the error frame, and end.
func (s *Server) dropSubLocked(sub *subscription, cause error) {
	delete(sub.view.subs, sub)
	s.subsDropped.Add(1)
	if cause != nil {
		if ev, err := marshalEvent("error", errorResponse{Error: cause.Error()}); err == nil {
			select {
			case sub.errCh <- ev:
			default: // a frame is already waiting; first cause wins
			}
		}
	}
	close(sub.ch)
}

type subscribeRequest struct {
	TheoryID string `json:"theory_id"`
	// CQ is a conjunctive query written as a rule, e.g. "T(X,Y) -> Ans(X,Y).".
	CQ string `json:"cq"`
}

// snapshotEvent is the first SSE frame of a stream: the subscribed
// query's exact answers at the version the subscription registered on.
type snapshotEvent struct {
	Version uint64     `json:"version"`
	Answers [][]string `json:"answers"`
	PlanKey string     `json:"plan_key"`
}

// deltaEvent is one committed batch's net answer change.
type deltaEvent struct {
	Version uint64     `json:"version"`
	Added   [][]string `json:"added"`
	Removed [][]string `json:"removed"`
}

// handleSubscribe registers a live conjunctive query over a mutable DB
// and streams it as SSE: one "snapshot" event with the current exact
// answers, then one "delta" event per committed mutation batch. The
// subscription reads the DB's materialized view of the query's plan,
// building it when there is none; a CQ whose cached plan falls back to
// a per-query bounded chase cannot be maintained incrementally and is
// rejected with 422 and a typed error. Registration (initial fixpoint)
// runs under heavy admission; the slot is released before streaming.
// Streams end on client disconnect, slow consumption, a failed
// maintenance batch, or server drain.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	var req subscribeRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	ckb, ok := s.store.Get(req.TheoryID)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown theory_id %q (evicted or never registered)", req.TheoryID))
		return
	}
	s.mu.Lock()
	ent, ok := s.dbs.Get(r.PathValue("id"))
	s.mu.Unlock()
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown db id %q (evicted or never loaded)", r.PathValue("id")))
		return
	}
	q, err := kb.ParseCQ(req.CQ)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported by connection"))
		return
	}
	if n := s.subscriptions.Add(1); n > int64(s.cfg.maxSubs()) {
		s.subscriptions.Add(-1)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("subscription limit reached (%d)", s.cfg.maxSubs()))
		return
	}
	defer s.subscriptions.Add(-1)

	// Registration pays the initial fixpoint — combined-complexity work.
	release, ok := s.admit(w, r, s.heavy, "heavy")
	if !ok {
		return
	}
	opts := kbcache.QueryOptions{Budget: s.requestBudget(r)}

	// Register under the entry lock: the initial evaluation and the
	// registry insert are atomic against batches, so the snapshot plus
	// the delta stream misses nothing and duplicates nothing.
	ent.mu.Lock()
	cur := ent.cur.Load()
	if cur == nil {
		ent.mu.Unlock()
		release()
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown db id %q (its load failed)", r.PathValue("id")))
		return
	}
	sel := ckb.CQSelector(q)
	key := viewKey{theory: ckb.ID, plan: sel.View()}
	v := ent.views[key]
	var mv *kbcache.MaintainedView
	if v == nil {
		mv, err = ckb.Maintain(r.Context(), sel, cur.db, opts)
		if err != nil {
			ent.mu.Unlock()
			release()
			s.logEnginePanic("subscribe", err)
			if errors.Is(err, kbcache.ErrNotMaintainable) {
				s.writeJSON(w, http.StatusUnprocessableEntity,
					errorResponse{Error: err.Error(), Kind: "not_maintainable"})
				return
			}
			s.writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
	}
	// Register under s.mu with a membership re-check, mirroring the
	// commit path in handleFacts: if the LRU evicted this entry after the
	// handler's lookup, registering here would create a stream that never
	// receives another batch. Eviction is serialized by s.mu, so it lands
	// before this check (→ 409, no registration) or after it (→ the
	// eviction teardown finds the subscription and drops it with an
	// error frame).
	s.mu.Lock()
	if live, ok := s.dbs.Get(r.PathValue("id")); !ok || live != ent {
		s.mu.Unlock()
		ent.mu.Unlock()
		release()
		s.writeError(w, http.StatusConflict,
			fmt.Errorf("db id %q was evicted during subscription setup", r.PathValue("id")))
		return
	}
	s.mu.Unlock()
	if v == nil {
		v = s.installViewLocked(ent, key, mv)
	}
	sub := &subscription{view: v, sel: sel, ch: make(chan subEvent, 32), errCh: make(chan subEvent, 1)}
	v.subs[sub] = struct{}{}
	snap := snapshotEvent{Version: cur.version, Answers: termRows(cur.view(key).Answers(sel)), PlanKey: sel.PlanKey()}
	ent.mu.Unlock()
	release()

	defer func() {
		// Unregister unless a batch already dropped us (which closed ch).
		ent.mu.Lock()
		delete(v.subs, sub)
		ent.mu.Unlock()
	}()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	first, err := marshalEvent("snapshot", snap)
	if err != nil {
		s.encodeErrors.Add(1)
		return
	}
	if !writeSSE(w, flusher, first) {
		return
	}
	for {
		select {
		case ev, ok := <-sub.ch:
			if !ok {
				// Dropped by a mutation batch or an eviction. The cause is
				// waiting on the reserved error slot: emit it so the client
				// can tell a drop (incomplete stream) from a graceful close.
				select {
				case ev := <-sub.errCh:
					writeSSE(w, flusher, ev)
				default:
				}
				return
			}
			if !writeSSE(w, flusher, ev) {
				return
			}
		case <-r.Context().Done():
			return
		case <-s.draining:
			return
		}
	}
}

// marshalEvent renders one SSE frame.
func marshalEvent(event string, v any) (subEvent, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return subEvent{}, err
	}
	return subEvent{event: event, data: data}, nil
}

// writeSSE writes one frame and flushes; false means the client is gone.
func writeSSE(w http.ResponseWriter, f http.Flusher, ev subEvent) bool {
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.event, ev.data); err != nil {
		return false
	}
	f.Flush()
	return true
}

// termRows renders answer tuples as string rows (JSON-friendly).
func termRows(tuples [][]core.Term) [][]string {
	out := make([][]string, 0, len(tuples))
	for _, tuple := range tuples {
		row := make([]string, len(tuple))
		for i, t := range tuple {
			row[i] = t.String()
		}
		out = append(out, row)
	}
	return out
}
