// Package server exposes a kbcache.Store over HTTP/JSON: register
// theories once, load fact databases, and answer conjunctive or atomic
// queries against the compiled artifacts concurrently. Compilation cost
// (the paper's combined-complexity work: classification, rew(Σ), dat(Σ),
// stratification, magic rewriting) is paid at registration and on the
// first query of each shape; every later query pays only evaluation.
//
// Endpoints:
//
//	POST /v1/theories            {"source": "..."}          → compiled-KB summary
//	POST /v1/dbs                 {"facts": "..."}           → database id + version
//	POST /v1/dbs/{id}/facts      {"add", "retract"}         → new version (atomic batch)
//	POST /v1/dbs/{id}/subscribe  {"theory_id", "cq"}        → SSE answer-delta stream
//	POST /v1/query               {"theory_id", "db_id", …}  → answers
//	GET  /metrics                                           → flat counter JSON
//	GET  /healthz                                           → liveness
//	GET  /readyz                                            → readiness (drain-aware)
//
// Fact DBs are mutable: a batch clones the current version in id-space,
// applies retractions then additions, folds the delta into every live
// subscription, and atomically swaps the entry's version pointer —
// in-flight queries keep reading the snapshot they started on and never
// see a half-applied batch. Subscriptions are conjunctive queries
// maintained incrementally (semi-naive resumption for inserts, DRed for
// deletes); a CQ whose cached plan falls back to a per-query bounded
// chase is rejected at registration with 422 rather than degrading to
// re-chasing on every batch.
//
// Every query runs under a request budget: the request context is the
// cancellation source (a disconnecting client aborts the engines) and
// the server's default timeout and fact ceiling bound the run. Budget
// exhaustion is not an HTTP error: the response carries the sound
// partial answers with "truncated": true and the typed reason.
//
// The server is hardened for sustained overload: POST bodies are
// size-capped (413), requests are routed through two-tier admission
// control (combined-complexity work — compile misses, cold plans,
// per-call chases — through a narrow gate; data-complexity plan-hit
// evaluation through a wide one) and shed with 429 + Retry-After when
// both the tier's slots and its bounded wait queue are full, handler
// panics are contained to a 500 on the one request, and BeginDrain
// flips /readyz to 503 so load balancers stop routing while in-flight
// requests finish.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/kb"
	"guardedrules/internal/kbcache"
	"guardedrules/internal/lint"
	"guardedrules/internal/lru"
	"guardedrules/internal/par"
	"guardedrules/internal/parser"
	"guardedrules/internal/store/segment"
	"guardedrules/internal/termination"
)

// Config bounds a Server.
type Config struct {
	// Store configures the compiled-KB cache.
	Store kbcache.Config
	// MaxDBs caps the number of loaded fact databases (LRU; 0 means 32).
	MaxDBs int
	// DefaultTimeout is the per-request engine budget; 0 means only the
	// request context bounds the run.
	DefaultTimeout time.Duration
	// MaxFacts is the per-request derived-fact ceiling (0 = none). It
	// guards uncertified evaluation only: theories compiled in
	// ModeCertified carry a termination proof and run to saturation
	// regardless (DefaultTimeout still applies).
	MaxFacts int
	// Workers is the per-round engine parallelism (0 = engine default).
	Workers int

	// HeavyLimit caps concurrent combined-complexity requests: compile
	// misses, cold-plan builds, and chase-per-call evaluation (0 = 4).
	HeavyLimit int
	// HeavyQueue bounds how many heavy requests may wait for a slot
	// before new arrivals are shed with 429 (0 = 2×HeavyLimit).
	HeavyQueue int
	// LightLimit caps concurrent data-complexity requests: plan-hit
	// evaluation and fact parsing (0 = 64).
	LightLimit int
	// LightQueue bounds the light wait queue (0 = 2×LightLimit).
	LightQueue int
	// MaxQueueWait bounds how long an admitted-but-queued request waits
	// for a slot before it is shed (0 = 1s).
	MaxQueueWait time.Duration
	// MaxBodyBytes caps POST request bodies; oversized bodies get 413
	// (0 = 4 MiB).
	MaxBodyBytes int64
	// MaxSubs caps concurrent live-query subscriptions server-wide;
	// registrations beyond it are shed with 429 (0 = 64).
	MaxSubs int
	// Chaos enables the fault-injection fields on query requests (used
	// by the load harness); without it those fields are rejected.
	Chaos bool

	// DataDir, when set, makes fact DBs and compiled theories durable:
	// every DB is backed by a segment store under DataDir/dbs/<id>,
	// mutation batches commit to disk before the new version is
	// published, and registered theories persist their compiled
	// artifacts under DataDir/theories. Call RestoreData after New to
	// reopen everything at its last committed version. Empty means fully
	// in-memory (the default).
	DataDir string
	// SyncWrites fsyncs every commit record. Off, a commit is durable
	// against process death (SIGKILL included) but not against kernel
	// crash or power loss; on, each batch pays an fsync.
	SyncWrites bool
}

func (c Config) maxDBs() int {
	if c.MaxDBs <= 0 {
		return 32
	}
	return c.MaxDBs
}

func (c Config) heavyLimit() int {
	if c.HeavyLimit <= 0 {
		return 4
	}
	return c.HeavyLimit
}

func (c Config) heavyQueue() int {
	if c.HeavyQueue <= 0 {
		return 2 * c.heavyLimit()
	}
	return c.HeavyQueue
}

func (c Config) lightLimit() int {
	if c.LightLimit <= 0 {
		return 64
	}
	return c.LightLimit
}

func (c Config) lightQueue() int {
	if c.LightQueue <= 0 {
		return 2 * c.lightLimit()
	}
	return c.LightQueue
}

func (c Config) maxQueueWait() time.Duration {
	if c.MaxQueueWait <= 0 {
		return time.Second
	}
	return c.MaxQueueWait
}

func (c Config) maxBodyBytes() int64 {
	if c.MaxBodyBytes <= 0 {
		return 4 << 20
	}
	return c.MaxBodyBytes
}

func (c Config) maxSubs() int {
	if c.MaxSubs <= 0 {
		return 64
	}
	return c.MaxSubs
}

// endpointStats counts one endpoint's traffic.
type endpointStats struct {
	requests  atomic.Int64
	errors    atomic.Int64
	latencyUS atomic.Int64
}

// dbVersion is one immutable snapshot of a mutable fact DB: queries
// read whichever version is current when they start and are never
// exposed to a half-applied batch; version numbers are per-DB and
// increase by one per committed batch.
type dbVersion struct {
	db      *database.Database
	version uint64
	facts   int
}

// dbEntry is a mutable fact DB: an atomically swappable current version
// plus the live subscriptions fed by its mutation batches. mu serializes
// writers (fact batches, subscription registration); readers load cur
// without locking.
type dbEntry struct {
	id   string
	mu   sync.Mutex
	cur  atomic.Pointer[dbVersion]
	subs map[*subscription]struct{}

	// seg is the entry's durable segment store (nil on a server without
	// a data dir). Writes to it happen only under mu; cur always serves
	// an immutable clone of its committed state, never the store's own
	// mirror, so in-flight queries are isolated from the journal.
	seg *segment.Store
}

// Server serves a compiled-KB store over HTTP.
type Server struct {
	cfg   Config
	store *kbcache.Store

	mu          sync.Mutex
	dbs         *lru.Cache[*dbEntry]
	dbEvictions atomic.Int64

	heavy *tier
	light *tier

	ready           atomic.Bool // false once draining
	draining        chan struct{}
	drainOnce       sync.Once
	inFlight        atomic.Int64
	panicsRecovered atomic.Int64
	enginePanics    atomic.Int64
	encodeErrors    atomic.Int64

	// Mutation and subscription traffic.
	subscriptions  atomic.Int64 // live SSE streams (gauge)
	subsEvents     atomic.Int64 // delta events delivered
	subsDropped    atomic.Int64 // subscriptions dropped (slow consumer or failed batch)
	factBatches    atomic.Int64 // committed mutation batches
	factsAdded     atomic.Int64 // base facts added across batches
	factsRetracted atomic.Int64 // base facts retracted across batches

	endpoints map[string]*endpointStats
	mux       *http.ServeMux
}

// New builds a server around a fresh store.
func New(cfg Config) *Server {
	s := &Server{
		cfg:       cfg,
		store:     kbcache.NewStore(cfg.Store),
		dbs:       lru.New[*dbEntry](cfg.maxDBs()),
		heavy:     newTier(cfg.heavyLimit(), cfg.heavyQueue(), cfg.maxQueueWait()),
		light:     newTier(cfg.lightLimit(), cfg.lightQueue(), cfg.maxQueueWait()),
		endpoints: make(map[string]*endpointStats),
		mux:       http.NewServeMux(),
		draining:  make(chan struct{}),
	}
	s.ready.Store(true)
	s.mux.HandleFunc("POST /v1/theories", s.instrument("theories", s.handleTheories))
	s.mux.HandleFunc("GET /v1/theories/{id}", s.instrument("theory_info", s.handleTheoryInfo))
	s.mux.HandleFunc("POST /v1/dbs", s.instrument("dbs", s.handleDBs))
	s.mux.HandleFunc("GET /v1/dbs/{id}", s.instrument("db_info", s.handleDBInfo))
	s.mux.HandleFunc("POST /v1/dbs/{id}/facts", s.instrument("facts", s.handleFacts))
	s.mux.HandleFunc("POST /v1/dbs/{id}/subscribe", s.instrument("subscribe", s.handleSubscribe))
	s.mux.HandleFunc("POST /v1/query", s.instrument("query", s.handleQuery))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	return s
}

// Store exposes the underlying compiled-KB store (tests, metrics).
func (s *Server) Store() *kbcache.Store { return s.store }

// Handler is the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips /readyz to 503 so load balancers stop routing new
// traffic and closes every live subscription stream (an SSE stream
// would otherwise hold http.Server.Shutdown open forever). In-flight
// requests are unaffected; pair with http.Server.Shutdown, which waits
// for them.
func (s *Server) BeginDrain() {
	s.ready.Store(false)
	s.drainOnce.Do(func() { close(s.draining) })
}

// InFlight reports the requests currently inside handlers.
func (s *Server) InFlight() int64 { return s.inFlight.Load() }

// statusRecorder captures the response status for error counting and
// whether a header went out (a panicking handler may or may not have
// started its response).
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so SSE streams work through
// the instrumentation wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with per-endpoint request, error and
// latency counters, the server-wide in-flight gauge, and panic
// containment: a panicking handler costs that request a 500, never the
// process.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	st := &endpointStats{}
	s.endpoints[name] = st
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.inFlight.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if v := recover(); v != nil {
				s.panicsRecovered.Add(1)
				log.Printf("server: panic in %s handler (contained): %v\n%s", name, v, debug.Stack())
				rec.status = http.StatusInternalServerError
				if !rec.wrote {
					s.writeError(rec, http.StatusInternalServerError,
						fmt.Errorf("internal error: handler panicked: %v", v))
				}
			}
			s.inFlight.Add(-1)
			st.requests.Add(1)
			if rec.status >= 400 {
				st.errors.Add(1)
			}
			st.latencyUS.Add(time.Since(start).Microseconds())
		}()
		h(rec, r)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The status line is already out; all we can do is count the
		// failure so operators see responses dying mid-encode.
		s.encodeErrors.Add(1)
	}
}

type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
}

// writeError maps an error onto an HTTP status: typed budget errors name
// their ceiling; deadlines are 504, cancellations 503, other budget
// ceilings 422 (the artifact is too large for the configured bounds).
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	resp := errorResponse{Error: err.Error()}
	var be *budget.Error
	if errors.As(err, &be) {
		resp.Kind = be.Unwrap().Error()
		switch {
		case errors.Is(err, budget.ErrDeadline):
			status = http.StatusGatewayTimeout
		case errors.Is(err, budget.ErrCanceled):
			status = http.StatusServiceUnavailable
		default:
			status = http.StatusUnprocessableEntity
		}
	}
	s.writeJSON(w, status, resp)
}

// decodeBody decodes the JSON request body under the configured size
// cap. On failure it writes the error response itself — 413 for an
// oversized body, 400 for malformed JSON — and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes())
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("invalid JSON: %w", err))
		return false
	}
	return true
}

// admit routes the request through the named tier, shedding with 429 +
// Retry-After when the tier's slots and bounded queue are both full (or
// the wait times out). On admission the caller must call release.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, t *tier, tierName string) (release func(), ok bool) {
	release, ok = t.acquire(r.Context())
	if !ok {
		w.Header().Set("Retry-After", strconv.Itoa(t.retryAfterSeconds()))
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("server saturated: %s admission queue full, retry later", tierName))
		return nil, false
	}
	return release, true
}

type theoryRequest struct {
	Source string `json:"source"`
}

type theoryResponse struct {
	ID          string               `json:"id"`
	Cached      bool                 `json:"cached"`
	Mode        string               `json:"mode"`
	Fragments   []string             `json:"fragments"`
	Chain       []string             `json:"chain"`
	Rules       int                  `json:"rules"`
	Termination *terminationResponse `json:"termination,omitempty"`
	Lint        []lint.Diagnostic    `json:"lint,omitempty"`
}

// terminationResponse reports the chase-termination verdict of a
// registered theory: the tightest certified class, its machine-checkable
// certificate, and (weakly acyclic theories) the fact-bound
// coefficients.
type terminationResponse struct {
	Class       string                   `json:"class"`
	Certificate *termination.Certificate `json:"certificate,omitempty"`
	Bound       *termination.Bound       `json:"bound,omitempty"`
}

func (s *Server) handleTheories(w http.ResponseWriter, r *http.Request) {
	var req theoryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Source == "" {
		s.writeError(w, http.StatusBadRequest, errors.New("missing \"source\""))
		return
	}
	// A re-registration of a cached source is a map lookup (light); a
	// novel source pays the full combined-complexity compile pipeline
	// (heavy). Concurrent first registrations all classify heavy and
	// share one compile through the store's flight — exactly the
	// requests that should be holding heavy slots.
	admitTier, tierName := s.heavy, "heavy"
	if _, ok := s.store.Get(kbcache.HashSource(req.Source)); ok {
		admitTier, tierName = s.light, "light"
	}
	release, ok := s.admit(w, r, admitTier, tierName)
	if !ok {
		return
	}
	defer release()
	// A theory whose artifact survived on disk (LRU-evicted, or from an
	// earlier process) restores without re-running the translations.
	id := kbcache.HashSource(req.Source)
	if _, ok := s.store.Get(id); !ok && s.theoryPersisted(id) {
		if err := s.loadTheoryArtifact(s.theoryPath(id)); err != nil {
			log.Printf("server: stale theory artifact %.12s…: %v", id, err)
		}
	}
	ckb, cached, err := s.store.Register(r.Context(), req.Source)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if !cached {
		s.persistTheory(ckb)
	}
	s.writeJSON(w, http.StatusOK, theorySummary(ckb, cached))
}

// theorySummary renders a compiled KB for the registration and info
// endpoints.
func theorySummary(ckb *kbcache.CompiledKB, cached bool) theoryResponse {
	resp := theoryResponse{
		ID:     ckb.ID,
		Cached: cached,
		Mode:   ckb.Mode.String(),
		Chain:  ckb.Chain,
		Rules:  len(ckb.Theory.Rules),
		Lint:   ckb.Lint,
	}
	if tr := ckb.Termination; tr != nil {
		resp.Termination = &terminationResponse{
			Class:       tr.Class.String(),
			Certificate: tr.Certificate,
			Bound:       tr.Bound,
		}
	}
	for _, f := range ckb.Class.Fragments() {
		resp.Fragments = append(resp.Fragments, f.String())
	}
	return resp
}

// theoryInfoResponse is GET /v1/theories/{id}: the registration summary
// plus persistence status and the cached plan keys.
type theoryInfoResponse struct {
	theoryResponse
	Persistent bool     `json:"persistent"`
	PlanKeys   []string `json:"plan_keys,omitempty"`
}

func (s *Server) handleTheoryInfo(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ckb, ok := s.store.Get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown theory id %q (evicted or never registered)", id))
		return
	}
	s.writeJSON(w, http.StatusOK, theoryInfoResponse{
		theoryResponse: theorySummary(ckb, true),
		Persistent:     s.theoryPersisted(id),
		PlanKeys:       ckb.PlanKeys(),
	})
}

// relationInfo is one relation's shape and size in a DB snapshot.
type relationInfo struct {
	Name     string `json:"name"`
	Arity    int    `json:"arity"`
	AnnArity int    `json:"ann_arity,omitempty"`
	Facts    int    `json:"facts"`
}

// dbInfoResponse is GET /v1/dbs/{id}: the served version, fact counts,
// per-relation sizes, and persistence status of a loaded DB.
type dbInfoResponse struct {
	ID          string         `json:"id"`
	Version     uint64         `json:"version"`
	Facts       int            `json:"facts"`
	TotalFacts  int            `json:"total_facts"`
	Relations   []relationInfo `json:"relations"`
	Persistent  bool           `json:"persistent"`
	Subscribers int            `json:"subscribers"`
}

func (s *Server) handleDBInfo(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	ent, ok := s.dbs.Get(id)
	s.mu.Unlock()
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown db id %q (evicted or never loaded)", id))
		return
	}
	snap := ent.cur.Load()
	resp := dbInfoResponse{
		ID:         id,
		Version:    snap.version,
		Facts:      snap.facts,
		TotalFacts: snap.db.Len(),
		Persistent: ent.seg != nil,
		Relations:  []relationInfo{},
	}
	for _, rk := range snap.db.Relations() {
		resp.Relations = append(resp.Relations, relationInfo{
			Name:     rk.Name,
			Arity:    rk.Arity,
			AnnArity: rk.AnnArity,
			Facts:    snap.db.RelSize(rk),
		})
	}
	ent.mu.Lock()
	resp.Subscribers = len(ent.subs)
	ent.mu.Unlock()
	s.writeJSON(w, http.StatusOK, resp)
}

type dbRequest struct {
	Facts string `json:"facts"`
}

type dbResponse struct {
	ID      string `json:"id"`
	Facts   int    `json:"facts"`
	Version uint64 `json:"version"`
}

func (s *Server) handleDBs(w http.ResponseWriter, r *http.Request) {
	var req dbRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// Fact parsing is data-complexity work bounded by the body cap.
	release, ok := s.admit(w, r, s.light, "light")
	if !ok {
		return
	}
	defer release()
	atoms, err := parser.ParseFacts(req.Facts)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	d := database.FromAtoms(atoms)
	id := kbcache.HashSource(req.Facts)
	ent := &dbEntry{id: id, subs: make(map[*subscription]struct{})}
	ent.cur.Store(&dbVersion{db: d, version: 1, facts: len(atoms)})
	// Pre-lock the candidate entry: if it wins publication below, this
	// handler owns its one-time setup (opening the segment store), and a
	// batch or subscription racing in blocks on ent.mu until setup is
	// done. The provisional version stored above keeps lock-free readers
	// safe in that window.
	ent.mu.Lock()
	owned := true
	var victim *dbEntry
	s.mu.Lock()
	if old, ok := s.dbs.Get(id); ok {
		// Reloading the same source must not reset a mutated DB to its
		// initial facts (the id hashes the original source): keep the
		// existing entry, its version history and subscribers intact.
		ent.mu.Unlock()
		ent, owned = old, false
	} else if _, v, evicted := s.dbs.Add(id, ent); evicted {
		s.dbEvictions.Add(1)
		victim = v
	}
	s.mu.Unlock()
	if owned {
		if err := s.setupSegLocked(ent, atoms); err != nil {
			// Publishing a memory-only entry on a server the operator made
			// durable would silently drop data on restart: unpublish and
			// fail the load instead.
			s.mu.Lock()
			s.dbs.Remove(id)
			s.mu.Unlock()
			ent.mu.Unlock()
			s.teardownEvicted(victim, fmt.Sprintf("MaxDBs=%d LRU", s.cfg.maxDBs()))
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
		ent.mu.Unlock()
	}
	// Tear the evicted DB down outside s.mu (writers take ent.mu before
	// s.mu, so nesting the other way would deadlock): subscribers get a
	// terminal error frame and segment-file handles are closed.
	s.teardownEvicted(victim, fmt.Sprintf("MaxDBs=%d LRU", s.cfg.maxDBs()))
	cur := ent.cur.Load()
	s.writeJSON(w, http.StatusOK, dbResponse{ID: id, Facts: cur.facts, Version: cur.version})
}

// setupSegLocked attaches the durable segment store to a freshly
// published entry (no-op without a data dir; caller holds ent.mu). A
// fresh store journals and commits the initial facts (version 1, like a
// memory-only load); a store whose directory survived an earlier
// process or eviction reopens at its last committed version — same
// rule as reloading a live entry: posting the same source never resets
// a mutated DB.
func (s *Server) setupSegLocked(ent *dbEntry, atoms []core.Atom) error {
	if !s.persistent() {
		return nil
	}
	seg, err := s.openSeg(ent.id)
	if err != nil {
		return fmt.Errorf("open segment store: %w", err)
	}
	fresh := seg.Version() == 0
	if fresh {
		for _, a := range atoms {
			seg.Add(a)
		}
		if _, err := seg.Commit(); err != nil {
			seg.Close()
			return fmt.Errorf("commit initial facts: %w", err)
		}
	}
	db := seg.Clone()
	facts := len(atoms)
	if !fresh {
		facts = len(db.UserFacts())
	}
	ent.seg = seg
	ent.cur.Store(&dbVersion{db: db, version: seg.Version(), facts: facts})
	return nil
}

type queryRequest struct {
	TheoryID string `json:"theory_id"`
	DBID     string `json:"db_id"`
	// CQ is a conjunctive query written as a rule, e.g.
	// "T(X,Y), B(Y) -> Ans(X)."; exactly one of CQ and Atom is set.
	CQ string `json:"cq,omitempty"`
	// Atom is an atomic query, e.g. "T(a,Y)": constants are bound,
	// variables free. Served goal-directed via a cached magic-sets plan.
	Atom string `json:"atom,omitempty"`
	// Variant selects the chase flavor for chase-mode plans
	// ("restricted" or "oblivious"; default restricted).
	Variant string `json:"variant,omitempty"`
	// MaxDepth bounds chase-mode null depth (0 = server default).
	MaxDepth int `json:"max_depth,omitempty"`

	// Fault-injection fields, rejected unless the server was built with
	// Config.Chaos (the load harness's levers). FailAt aborts the
	// engine budget at its nth checkpoint; PanicAt panics there
	// (exercising worker/engine containment); DelayMS sleeps before
	// evaluation while holding the admission slot (driving shed paths
	// deterministically); PanicHandler panics in the HTTP handler
	// itself (exercising the recovery middleware).
	FailAt       int64 `json:"fail_at,omitempty"`
	PanicAt      int64 `json:"panic_at,omitempty"`
	DelayMS      int   `json:"delay_ms,omitempty"`
	PanicHandler bool  `json:"panic_handler,omitempty"`
}

func (q queryRequest) wantsChaos() bool {
	return q.FailAt > 0 || q.PanicAt > 0 || q.DelayMS > 0 || q.PanicHandler
}

type queryResponse struct {
	Answers   [][]string `json:"answers"`
	Count     int        `json:"count"`
	Exact     bool       `json:"exact"`
	PlanKey   string     `json:"plan_key"`
	PlanHit   bool       `json:"plan_hit"`
	Truncated bool       `json:"truncated,omitempty"`
	Reason    string     `json:"reason,omitempty"`
	Chain     []string   `json:"chain,omitempty"`
	DBVersion uint64     `json:"db_version"`
}

// requestBudget builds the engine budget of one request: the request
// context cancels it, the server defaults bound it.
func (s *Server) requestBudget(r *http.Request) *budget.T {
	return &budget.T{
		Ctx:      r.Context(),
		Timeout:  s.cfg.DefaultTimeout,
		MaxFacts: s.cfg.MaxFacts,
	}
}

// classifyQuery picks the admission tier of a query: light exactly when
// the KB already holds a compiled (non-chase) plan for the query's
// shape, so the request pays only data-complexity evaluation. Plan
// misses, chase-fallback plans, and chase-mode KBs (which re-chase per
// call, atom queries included via the CQ path) are heavy.
func (s *Server) classifyQuery(ckb *kbcache.CompiledKB, key string) (t *tier, name string) {
	if cached, chasePerCall := ckb.PlanInfo(key); cached && !chasePerCall {
		return s.light, "light"
	}
	return s.heavy, "heavy"
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.wantsChaos() && !s.cfg.Chaos {
		s.writeError(w, http.StatusBadRequest,
			errors.New("fault-injection fields require a server started with chaos enabled"))
		return
	}
	ckb, ok := s.store.Get(req.TheoryID)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown theory_id %q (evicted or never registered)", req.TheoryID))
		return
	}
	s.mu.Lock()
	ent, ok := s.dbs.Get(req.DBID)
	s.mu.Unlock()
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown db_id %q (evicted or never loaded)", req.DBID))
		return
	}

	// Parse the query before admission: both the tier classification and
	// the rejection of malformed requests should not cost a slot.
	var (
		q        kb.CQ
		query    core.Atom
		isCQ     bool
		parseErr error
	)
	switch {
	case req.CQ != "" && req.Atom == "":
		isCQ = true
		q, parseErr = kb.ParseCQ(req.CQ)
	case req.Atom != "" && req.CQ == "":
		query, parseErr = parseQueryAtom(req.Atom)
	default:
		s.writeError(w, http.StatusBadRequest, errors.New("exactly one of \"cq\" and \"atom\" must be set"))
		return
	}
	if parseErr != nil {
		s.writeError(w, http.StatusBadRequest, parseErr)
		return
	}
	planKey := kbcache.AtomKey(query)
	if isCQ {
		planKey = kbcache.CQKey(q)
	}
	admitTier, tierName := s.classifyQuery(ckb, planKey)
	release, ok := s.admit(w, r, admitTier, tierName)
	if !ok {
		return
	}
	defer release()

	if req.DelayMS > 0 {
		select {
		case <-time.After(time.Duration(req.DelayMS) * time.Millisecond):
		case <-r.Context().Done():
		}
	}
	if req.PanicHandler {
		panic("chaos: injected handler panic")
	}

	opts := kbcache.QueryOptions{
		Workers:  s.cfg.Workers,
		Variant:  chase.Restricted,
		MaxDepth: req.MaxDepth,
		Budget:   s.requestBudget(r),
	}
	opts.Budget.FailAtCheckpoint = req.FailAt
	opts.Budget.PanicAtCheckpoint = req.PanicAt
	if ckb.Mode == kbcache.ModeCertified {
		// The defensive fact ceiling guards against divergent chases; a
		// termination certificate proves there is none, so certified
		// theories run to saturation with only cancellation (request
		// context, timeout) still in force.
		opts.Budget.MaxFacts = 0
	}
	if req.Variant == "oblivious" {
		opts.Variant = chase.Oblivious
	}

	// Pin the DB version for the whole evaluation: a mutation batch
	// committing mid-query swaps the entry's pointer to a fresh clone, so
	// this snapshot is immutable and never shows a half-applied batch.
	snap := ent.cur.Load()
	var (
		res *kbcache.QueryResult
		err error
	)
	if isCQ {
		res, err = ckb.AnswerCQ(r.Context(), q, snap.db, opts)
	} else {
		res, err = ckb.AnswerAtom(r.Context(), query, snap.db, opts)
	}
	if err != nil && (res == nil || !budget.IsBudget(err)) {
		var pe *par.PanicError
		if errors.As(err, &pe) {
			// An engine worker panicked; the engines contained it to this
			// request and the evaluation state was discarded.
			s.enginePanics.Add(1)
		}
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp := queryResponse{
		Answers:   make([][]string, 0, len(res.Answers)),
		Count:     len(res.Answers),
		Exact:     res.Exact,
		PlanKey:   res.PlanKey,
		PlanHit:   res.PlanHit,
		Chain:     res.Chain,
		DBVersion: snap.version,
	}
	for _, tuple := range res.Answers {
		row := make([]string, len(tuple))
		for i, t := range tuple {
			row[i] = t.String()
		}
		resp.Answers = append(resp.Answers, row)
	}
	if err != nil {
		// Budget exhaustion with sound partial answers: a 200 with the
		// truncation reason, mirroring the engines' partial-result
		// convention.
		resp.Truncated = true
		resp.Reason = err.Error()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// parseQueryAtom parses an atomic query, allowing variables.
func parseQueryAtom(src string) (core.Atom, error) {
	th, err := parser.ParseTheory(src + " -> QueryDummy__().")
	if err != nil {
		return core.Atom{}, fmt.Errorf("bad query atom: %w", err)
	}
	body := th.Rules[0].PositiveBody()
	if len(body) != 1 {
		return core.Atom{}, errors.New("query atom must be a single atom")
	}
	return body[0], nil
}

// Gauge keys in /metrics (free to move in both directions): "dbs",
// "kbs", "ready", "in_flight", "in_flight_heavy", "in_flight_light",
// "queued_heavy", "queued_light", "goroutines", "subscriptions".
// Everything else is a monotone counter — the load harness checks that
// invariant.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	out := s.store.Metrics().Snapshot()
	s.mu.Lock()
	out["dbs"] = int64(s.dbs.Len())
	s.mu.Unlock()
	out["db_evictions"] = s.dbEvictions.Load()
	out["kbs"] = int64(s.store.Len())
	out["ready"] = 0
	if s.ready.Load() {
		out["ready"] = 1
	}
	out["in_flight"] = s.inFlight.Load()
	out["goroutines"] = int64(runtime.NumGoroutine())
	out["panics_recovered"] = s.panicsRecovered.Load()
	out["engine_panics"] = s.enginePanics.Load()
	out["encode_errors"] = s.encodeErrors.Load()
	out["subscriptions"] = s.subscriptions.Load()
	out["subs_events"] = s.subsEvents.Load()
	out["subs_dropped"] = s.subsDropped.Load()
	out["fact_batches"] = s.factBatches.Load()
	out["facts_added"] = s.factsAdded.Load()
	out["facts_retracted"] = s.factsRetracted.Load()
	for name, t := range map[string]*tier{"heavy": s.heavy, "light": s.light} {
		out["shed_"+name] = t.shed.Load()
		out["admitted_"+name] = t.admitted.Load()
		out["in_flight_"+name] = t.inFlight.Load()
		out["queued_"+name] = t.waiting.Load()
	}
	for name, st := range s.endpoints {
		out["http_"+name+"_requests"] = st.requests.Load()
		out["http_"+name+"_errors"] = st.errors.Load()
		out["http_"+name+"_latency_us"] = st.latencyUS.Load()
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleReadyz reports routability: 200 while serving, 503 once
// draining. Liveness (/healthz) stays 200 throughout a drain — the
// process is healthy, it just wants no new work.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]bool{"ready": false})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]bool{"ready": true})
}
