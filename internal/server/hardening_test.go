package server

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// newHardenedServer builds a server with the given config plus a test
// listener, returning both so tests can reach Server internals
// (BeginDrain, counters) alongside the HTTP surface.
func newHardenedServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func metricsSnapshot(t *testing.T, base string) map[string]int64 {
	t.Helper()
	var m map[string]int64
	if code := get(t, base+"/metrics", &m); code != 200 {
		t.Fatalf("metrics: status %d", code)
	}
	return m
}

// Oversized POST bodies are rejected with 413 before any parsing.
func TestMaxBodyBytes(t *testing.T) {
	_, ts := newHardenedServer(t, Config{MaxBodyBytes: 1024})
	big := theoryRequest{Source: strings.Repeat("A(X) -> B(X). ", 200)}
	var resp errorResponse
	if code := post(t, ts.URL+"/v1/theories", big, &resp); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", code)
	}
	if !strings.Contains(resp.Error, "1024") {
		t.Fatalf("413 body should name the cap: %q", resp.Error)
	}
	// A request under the cap still works.
	if code := post(t, ts.URL+"/v1/theories", theoryRequest{Source: "A(X) -> B(X)."}, nil); code != 200 {
		t.Fatalf("small body after 413: status %d", code)
	}
}

// Chaos fields are rejected unless the server opted in.
func TestChaosFieldsGated(t *testing.T) {
	_, ts := newHardenedServer(t, Config{})
	thID, dbID := registerFixtures(t, ts.URL)
	req := queryRequest{TheoryID: thID, DBID: dbID, CQ: "B(X) -> Ans(X).", DelayMS: 10}
	if code := post(t, ts.URL+"/v1/query", req, nil); code != http.StatusBadRequest {
		t.Fatalf("chaos field without -chaos: status %d, want 400", code)
	}
}

// waitInFlight polls the tier gauge until it reaches want.
func waitInFlight(t *testing.T, tr *tier, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tr.inFlight.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("tier never reached %d in-flight (at %d)", want, tr.inFlight.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// With the heavy tier saturated (slots and queue full), the next heavy
// request is shed immediately with 429 + Retry-After, and the shed
// counter moves. Slots are occupied deterministically via the chaos
// delay hook.
func TestHeavyAdmissionSheds(t *testing.T) {
	srv, ts := newHardenedServer(t, Config{
		HeavyLimit:   1,
		HeavyQueue:   1,
		MaxQueueWait: 50 * time.Millisecond,
		Chaos:        true,
	})
	thID, dbID := registerFixtures(t, ts.URL)

	// Occupy the one heavy slot: an uncached CQ shape classifies heavy,
	// and the injected delay holds the slot. The queued request uses a
	// distinct shape so it is also a plan miss.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := queryRequest{
				TheoryID: thID, DBID: dbID,
				CQ:      fmt.Sprintf("T(X,Y), B(X) -> Ans%d(X).", i),
				DelayMS: 3000,
			}
			post(t, ts.URL+"/v1/query", req, nil)
		}(i)
	}
	waitInFlight(t, srv.heavy, 1)
	// Give the second request time to join the wait queue.
	deadline := time.Now().Add(5 * time.Second)
	for srv.heavy.waiting.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second heavy request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	body, _ := json.Marshal(queryRequest{
		TheoryID: thID, DBID: dbID,
		CQ: "T(X,Y), B(Y) -> AnsShed(X).",
	})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated heavy tier: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	m := metricsSnapshot(t, ts.URL)
	if m["shed_heavy"] < 1 {
		t.Fatalf("shed_heavy = %d, want >= 1", m["shed_heavy"])
	}
	wg.Wait()
}

// Plan-hit queries classify light and are admitted even while the heavy
// tier is saturated: overload on combined-complexity work does not
// starve cheap data-complexity serving.
func TestPlanHitsBypassHeavySaturation(t *testing.T) {
	srv, ts := newHardenedServer(t, Config{
		HeavyLimit:   1,
		HeavyQueue:   1,
		MaxQueueWait: 50 * time.Millisecond,
		Chaos:        true,
	})
	thID, dbID := registerFixtures(t, ts.URL)

	// Prime a plan (first use is heavy; afterwards its shape is light).
	hot := queryRequest{TheoryID: thID, DBID: dbID, CQ: "Linked(X,Y) -> Ans(X,Y)."}
	var primed queryResponse
	if code := post(t, ts.URL+"/v1/query", hot, &primed); code != 200 {
		t.Fatalf("priming query: status %d", code)
	}

	// Saturate the heavy slot.
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := queryRequest{
			TheoryID: thID, DBID: dbID,
			CQ: "T(X,Y), B(X) -> AnsHog(X).", DelayMS: 3000,
		}
		post(t, ts.URL+"/v1/query", req, nil)
	}()
	waitInFlight(t, srv.heavy, 1)

	var res queryResponse
	if code := post(t, ts.URL+"/v1/query", hot, &res); code != 200 {
		t.Fatalf("plan-hit under heavy saturation: status %d, want 200", code)
	}
	if !res.PlanHit {
		t.Fatal("expected a plan hit")
	}
	if fmt.Sprint(res.Answers) != fmt.Sprint(primed.Answers) {
		t.Fatal("plan-hit answers diverged under load")
	}
	<-done
}

// A panic inside the HTTP handler is contained by the recovery
// middleware: the request gets a 500, the counter moves, and the server
// keeps serving.
func TestHandlerPanicContained(t *testing.T) {
	_, ts := newHardenedServer(t, Config{Chaos: true})
	thID, dbID := registerFixtures(t, ts.URL)
	req := queryRequest{TheoryID: thID, DBID: dbID, CQ: "B(X) -> Ans(X).", PanicHandler: true}
	var resp errorResponse
	if code := post(t, ts.URL+"/v1/query", req, &resp); code != http.StatusInternalServerError {
		t.Fatalf("handler panic: status %d, want 500", code)
	}
	if !strings.Contains(resp.Error, "panic") {
		t.Fatalf("500 body should mention the panic: %q", resp.Error)
	}
	m := metricsSnapshot(t, ts.URL)
	if m["panics_recovered"] != 1 {
		t.Fatalf("panics_recovered = %d, want 1", m["panics_recovered"])
	}
	// The process (and this server) survived: normal serving continues.
	if code := post(t, ts.URL+"/v1/query",
		queryRequest{TheoryID: thID, DBID: dbID, CQ: "B(X) -> Ans(X)."}, nil); code != 200 {
		t.Fatalf("query after contained panic: status %d", code)
	}
}

// A panic inside an engine (injected at a budget checkpoint) is
// contained by the engine's recovery seam: the request gets a 500 with
// the typed panic error, the engine_panics counter moves, and the same
// query succeeds cleanly afterwards.
func TestEnginePanicContained(t *testing.T) {
	_, ts := newHardenedServer(t, Config{Chaos: true})
	thID, dbID := registerFixtures(t, ts.URL)
	req := queryRequest{TheoryID: thID, DBID: dbID, CQ: "T(X,Y) -> Ans(X,Y).", PanicAt: 1}
	var resp errorResponse
	if code := post(t, ts.URL+"/v1/query", req, &resp); code != http.StatusInternalServerError {
		t.Fatalf("engine panic: status %d, want 500 (body %q)", code, resp.Error)
	}
	if !strings.Contains(resp.Error, "panic") {
		t.Fatalf("500 body should carry the contained panic: %q", resp.Error)
	}
	m := metricsSnapshot(t, ts.URL)
	if m["engine_panics"] != 1 {
		t.Fatalf("engine_panics = %d, want 1", m["engine_panics"])
	}
	if m["panics_recovered"] != 0 {
		t.Fatalf("engine panic must be contained below the middleware, got panics_recovered = %d", m["panics_recovered"])
	}
	req.PanicAt = 0
	var clean queryResponse
	if code := post(t, ts.URL+"/v1/query", req, &clean); code != 200 || !clean.Exact {
		t.Fatalf("clean rerun after engine panic: status %d exact %v", code, clean.Exact)
	}
}

// lockedBuffer is a log destination safe for the server's goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// Contained panics log one line each, and only the first panic of each
// kind, handler or engine, logs its stack: two of each log four lines
// and two stacks. It swaps the process-wide logger, so it does not run
// in parallel.
func TestPanicLogsBounded(t *testing.T) {
	var out lockedBuffer
	prev := log.Writer()
	log.SetOutput(&out)
	t.Cleanup(func() { log.SetOutput(prev) })

	_, ts := newHardenedServer(t, Config{Chaos: true})
	thID, dbID := registerFixtures(t, ts.URL)
	for _, req := range []queryRequest{
		{TheoryID: thID, DBID: dbID, CQ: "B(X) -> Ans(X).", PanicHandler: true},
		{TheoryID: thID, DBID: dbID, CQ: "B(X) -> Ans(X).", PanicHandler: true},
		{TheoryID: thID, DBID: dbID, CQ: "T(X,Y) -> Ans(X,Y).", PanicAt: 1},
		{TheoryID: thID, DBID: dbID, CQ: "T(X,Y) -> Ans(X,Y).", PanicAt: 1},
	} {
		if code := post(t, ts.URL+"/v1/query", req, nil); code != http.StatusInternalServerError {
			t.Fatalf("panicking query: status %d, want 500", code)
		}
	}
	m := metricsSnapshot(t, ts.URL)
	if m["panics_recovered"] != 2 || m["engine_panics"] != 2 {
		t.Fatalf("panics_recovered %d, engine_panics %d; want 2 and 2", m["panics_recovered"], m["engine_panics"])
	}
	logged := out.String()
	if n := strings.Count(logged, "server: panic in "); n != 4 {
		t.Errorf("%d panic lines, want 4:\n%s", n, logged)
	}
	if stacks := regexp.MustCompile(`(?m)^goroutine \d+ \[running\]:`).FindAllString(logged, -1); len(stacks) != 2 {
		t.Errorf("%d stacks logged, want 2:\n%s", len(stacks), logged)
	}
}

// Chaos fail_at injects budget exhaustion: the response is a 200 with
// truncated partial answers, exercising the sound-truncation path.
func TestChaosFailAtTruncates(t *testing.T) {
	_, ts := newHardenedServer(t, Config{Chaos: true})
	thID, dbID := registerFixtures(t, ts.URL)
	var full queryResponse
	if code := post(t, ts.URL+"/v1/query",
		queryRequest{TheoryID: thID, DBID: dbID, CQ: "T(X,Y) -> Ans(X,Y)."}, &full); code != 200 {
		t.Fatalf("reference query: status %d", code)
	}
	var trunc queryResponse
	if code := post(t, ts.URL+"/v1/query",
		queryRequest{TheoryID: thID, DBID: dbID, CQ: "T(X,Y) -> Ans(X,Y).", FailAt: 2}, &trunc); code != 200 {
		t.Fatalf("fail_at query: status %d", code)
	}
	if !trunc.Truncated || trunc.Exact {
		t.Fatalf("fail_at should truncate: %+v", trunc)
	}
	// Soundness: every truncated answer appears in the full set.
	fullSet := map[string]bool{}
	for _, a := range full.Answers {
		fullSet[fmt.Sprint(a)] = true
	}
	for _, a := range trunc.Answers {
		if !fullSet[fmt.Sprint(a)] {
			t.Fatalf("truncated answer %v not in full set", a)
		}
	}
}

// BeginDrain flips /readyz to 503 while /healthz stays 200 and
// in-flight requests complete.
func TestReadyzDrain(t *testing.T) {
	srv, ts := newHardenedServer(t, Config{Chaos: true})
	thID, dbID := registerFixtures(t, ts.URL)

	var rz map[string]bool
	if code := get(t, ts.URL+"/readyz", &rz); code != 200 || !rz["ready"] {
		t.Fatalf("readyz before drain: %d %v", code, rz)
	}

	// A slow in-flight request spans the drain.
	slow := make(chan int, 1)
	go func() {
		slow <- post(t, ts.URL+"/v1/query",
			queryRequest{TheoryID: thID, DBID: dbID, CQ: "B(X) -> Ans(X).", DelayMS: 300}, nil)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.InFlight() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never entered")
		}
		time.Sleep(time.Millisecond)
	}

	srv.BeginDrain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", resp.StatusCode)
	}
	if code := get(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz during drain: %d, want 200", code)
	}
	if code := <-slow; code != 200 {
		t.Fatalf("in-flight request across drain: status %d, want 200", code)
	}
	m := metricsSnapshot(t, ts.URL)
	if m["ready"] != 0 {
		t.Fatalf("ready gauge = %d during drain, want 0", m["ready"])
	}
}

// writeJSON counts encode failures instead of discarding them.
func TestWriteJSONCountsEncodeErrors(t *testing.T) {
	srv := New(Config{})
	rec := httptest.NewRecorder()
	srv.writeJSON(rec, 200, map[string]any{"bad": make(chan int)})
	if got := srv.encodeErrors.Load(); got != 1 {
		t.Fatalf("encodeErrors = %d, want 1", got)
	}
}
