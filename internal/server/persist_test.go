package server

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// newPersistentServer boots a server over dir without starting to
// serve; the caller owns RestoreData/CloseData so tests can simulate
// restarts.
func newPersistentServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.DataDir = dir
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	srv := New(cfg)
	if err := srv.RestoreData(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func queryAnswers(t *testing.T, base, theoryID, dbID, cq string) ([][]string, uint64) {
	t.Helper()
	var qr queryResponse
	if code := post(t, base+"/v1/query", queryRequest{TheoryID: theoryID, DBID: dbID, CQ: cq}, &qr); code != 200 {
		t.Fatalf("query: status %d", code)
	}
	sort.Slice(qr.Answers, func(i, j int) bool {
		return fmt.Sprint(qr.Answers[i]) < fmt.Sprint(qr.Answers[j])
	})
	return qr.Answers, qr.DBVersion
}

// A server restart over the same data dir resumes every DB at its last
// committed version and every theory from its persisted artifact — no
// re-registration, no re-saturation, identical answers.
func TestServerRestartContinuity(t *testing.T) {
	dir := t.TempDir()
	const cq = "Linked(X,Y) -> Ans(X,Y)."

	srv1, ts1 := newPersistentServer(t, dir, Config{})
	theoryID, dbID := registerFixtures(t, ts1.URL)

	// Mutate twice so the durable version history is nontrivial.
	var fr factsResponse
	if code := post(t, ts1.URL+"/v1/dbs/"+dbID+"/facts",
		factsRequest{Add: "E(v3,v4). A(v4)."}, &fr); code != 200 {
		t.Fatalf("facts: status %d", code)
	}
	if code := post(t, ts1.URL+"/v1/dbs/"+dbID+"/facts",
		factsRequest{Retract: "E(v0,v1)."}, &fr); code != 200 {
		t.Fatalf("facts: status %d", code)
	}
	if fr.Version != 3 {
		t.Fatalf("version after two batches = %d, want 3", fr.Version)
	}
	wantAns, wantVer := queryAnswers(t, ts1.URL, theoryID, dbID, cq)
	if wantVer != 3 {
		t.Fatalf("served version = %d, want 3", wantVer)
	}

	var info dbInfoResponse
	if code := get(t, ts1.URL+"/v1/dbs/"+dbID, &info); code != 200 {
		t.Fatalf("db info: status %d", code)
	}
	if !info.Persistent || info.Version != 3 {
		t.Fatalf("db info = %+v, want persistent at version 3", info)
	}
	var thInfo theoryInfoResponse
	if code := get(t, ts1.URL+"/v1/theories/"+theoryID, &thInfo); code != 200 {
		t.Fatalf("theory info: status %d", code)
	}
	if !thInfo.Persistent || thInfo.Mode != "translated" {
		t.Fatalf("theory info = %+v, want persistent translated", thInfo)
	}

	// "Restart": flush and close, then boot a fresh server on the dir.
	if err := srv1.CloseData(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	srv2, ts2 := newPersistentServer(t, dir, Config{})
	if n := srv2.Store().Metrics().ArtifactLoads.Load(); n != 1 {
		t.Fatalf("artifact loads on boot = %d, want 1", n)
	}
	// The boot itself must not re-run the saturation — that is what the
	// artifact is for. (The first CQ below still builds its per-shape
	// dat(Σ∪q) plan, which is a translation, so assert before querying.)
	if n := srv2.Store().Metrics().Translations.Load(); n != 0 {
		t.Fatalf("boot ran %d translations; artifacts should have skipped them all", n)
	}
	gotAns, gotVer := queryAnswers(t, ts2.URL, theoryID, dbID, cq)
	if gotVer != wantVer {
		t.Fatalf("db_version after restart = %d, want %d (continuity)", gotVer, wantVer)
	}
	if !reflect.DeepEqual(gotAns, wantAns) {
		t.Fatalf("answers diverged across restart:\n  before %v\n  after  %v", wantAns, gotAns)
	}

	// The next batch continues the version sequence.
	if code := post(t, ts2.URL+"/v1/dbs/"+dbID+"/facts",
		factsRequest{Add: "E(v4,v5). A(v5)."}, &fr); code != 200 {
		t.Fatalf("facts after restart: status %d", code)
	}
	if fr.Version != wantVer+1 {
		t.Fatalf("version after restart batch = %d, want %d", fr.Version, wantVer+1)
	}

	// Re-posting the original source must not reset the mutated DB.
	var db dbResponse
	if code := post(t, ts2.URL+"/v1/dbs", dbRequest{Facts: e5Facts}, &db); code != 200 {
		t.Fatalf("reload: status %d", code)
	}
	if db.Version != wantVer+1 {
		t.Fatalf("reload reset the DB to version %d, want %d", db.Version, wantVer+1)
	}

	// Re-registering the theory hits the restored artifact (no compile).
	var th theoryResponse
	if code := post(t, ts2.URL+"/v1/theories", theoryRequest{Source: e5Source}, &th); code != 200 {
		t.Fatalf("re-register: status %d", code)
	}
	if !th.Cached {
		t.Fatal("re-registering a restored theory must be a cache hit")
	}
}

// A load acknowledges the distinct user facts its database holds: a
// fact given twice counts once, and an ACDom fact, whose relation the
// database maintains itself, not at all. That is the count a restart
// reports and the base the next batch adds to, on the memory and the
// durable path alike. An ACDom fact added for a constant of a loaded
// fact keeps that constant in the domain once its facts are retracted,
// also after a restart.
func TestLoadAcknowledgesDistinctFacts(t *testing.T) {
	const src, batch = "E(a,b). E(a,b). A(a). ACDom(z).", "E(b,c). E(a,b). ACDom(y)."
	const domTheory, domCQ = "ACDom(X) -> Dom(X).", "Dom(X) -> Ans(X)."
	load := func(base string) string {
		t.Helper()
		var db dbResponse
		if code := post(t, base+"/v1/dbs", dbRequest{Facts: src}, &db); code != 200 || db.Facts != 2 {
			t.Fatalf("load: status %d, %d facts acknowledged, want 200 and 2", code, db.Facts)
		}
		return db.ID
	}
	postBatch := func(base, id string, req factsRequest, want int) {
		t.Helper()
		var fr factsResponse
		if code := post(t, base+"/v1/dbs/"+id+"/facts", req, &fr); code != 200 || fr.Facts != want {
			t.Fatalf("batch %+v: status %d, %d facts, want 200 and %d", req, code, fr.Facts, want)
		}
	}
	addBatch := func(base, id string) { t.Helper(); postBatch(base, id, factsRequest{Add: batch}, 3) }
	// pin adds ACDom(a) for a constant of the loaded facts, then retracts
	// every fact a occurs in: the explicit ACDom(a) alone keeps a in the
	// active domain, and it is no fact of the count.
	pin := func(base, id string) {
		t.Helper()
		postBatch(base, id, factsRequest{Add: "ACDom(a)."}, 3)
		postBatch(base, id, factsRequest{Retract: "E(a,b). A(a)."}, 1)
	}
	register := func(base string) string {
		t.Helper()
		var th theoryResponse
		if code := post(t, base+"/v1/theories", theoryRequest{Source: domTheory}, &th); code != 200 {
			t.Fatalf("theories: status %d", code)
		}
		return th.ID
	}
	checkDom := func(base, thID, id string) {
		t.Helper()
		if got, _ := queryAnswers(t, base, thID, id, domCQ); fmt.Sprint(got) != "[[a] [b] [c] [y] [z]]" {
			t.Fatalf("Dom answers %v, want a, b, c, y, z", got)
		}
	}
	ts := newTestServer(t)
	memID := load(ts.URL)
	addBatch(ts.URL, memID)
	pin(ts.URL, memID)
	checkDom(ts.URL, register(ts.URL), memID)

	dir := t.TempDir()
	srv1, ts1 := newPersistentServer(t, dir, Config{})
	id := load(ts1.URL)
	thID := register(ts1.URL)
	if err := srv1.CloseData(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	srv2, ts2 := newPersistentServer(t, dir, Config{})
	var info dbInfoResponse
	if code := get(t, ts2.URL+"/v1/dbs/"+id, &info); code != 200 || info.Facts != 2 {
		t.Fatalf("db info after restart: status %d, %d facts, want 200 and 2", code, info.Facts)
	}
	addBatch(ts2.URL, id)
	pin(ts2.URL, id)
	checkDom(ts2.URL, thID, id)
	if err := srv2.CloseData(); err != nil {
		t.Fatal(err)
	}
	ts2.Close()
	_, ts3 := newPersistentServer(t, dir, Config{})
	if code := get(t, ts3.URL+"/v1/dbs/"+id, &info); code != 200 || info.Facts != 1 {
		t.Fatalf("db info after the pinning batches and a restart: status %d, %d facts, want 200 and 1", code, info.Facts)
	}
	checkDom(ts3.URL, thID, id)
}

// An unclean stop (no CloseData — the process just dies) loses nothing
// committed: acknowledged batches are journaled before their response.
func TestServerUncleanStopKeepsCommittedBatches(t *testing.T) {
	dir := t.TempDir()
	const cq = "T(X,Y) -> Ans(X,Y)."

	_, ts1 := newPersistentServer(t, dir, Config{})
	theoryID, dbID := registerFixtures(t, ts1.URL)
	var fr factsResponse
	if code := post(t, ts1.URL+"/v1/dbs/"+dbID+"/facts",
		factsRequest{Add: "E(v3,v4)."}, &fr); code != 200 {
		t.Fatalf("facts: status %d", code)
	}
	wantAns, wantVer := queryAnswers(t, ts1.URL, theoryID, dbID, cq)
	ts1.Close() // no CloseData: segment files are left as-is, like a kill

	_, ts2 := newPersistentServer(t, dir, Config{})
	gotAns, gotVer := queryAnswers(t, ts2.URL, theoryID, dbID, cq)
	if gotVer != wantVer {
		t.Fatalf("version after unclean stop = %d, want %d", gotVer, wantVer)
	}
	if !reflect.DeepEqual(gotAns, wantAns) {
		t.Fatalf("answers diverged after unclean stop:\n  before %v\n  after  %v", wantAns, gotAns)
	}
}

// dataDirFDs counts this process's descriptors open on files under dir.
func dataDirFDs(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd on this platform: %v", err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, abs+string(filepath.Separator)) {
			n++
		}
	}
	return n
}

// LRU eviction of a persistent DB closes its segment-file handles: the
// FD count stays bounded by MaxDBs no matter how many DBs cycle
// through, and an evicted DB reloads from disk with its mutations.
func TestServerEvictionClosesSegmentFiles(t *testing.T) {
	dir := t.TempDir()
	_, ts := newPersistentServer(t, dir, Config{MaxDBs: 2})

	ids := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		var db dbResponse
		facts := fmt.Sprintf("E(a%d,b%d).", i, i)
		if code := post(t, ts.URL+"/v1/dbs", dbRequest{Facts: facts}, &db); code != 200 {
			t.Fatalf("db %d: status %d", i, code)
		}
		ids = append(ids, db.ID)
		if i == 0 {
			// Mutate the first DB so its reload below must come from disk.
			var fr factsResponse
			if code := post(t, ts.URL+"/v1/dbs/"+db.ID+"/facts",
				factsRequest{Add: "E(x,y)."}, &fr); code != 200 {
				t.Fatalf("facts: status %d", code)
			}
		}
	}
	// Each open segment store holds exactly one FD (its log); 2 live DBs
	// means 2 data-dir FDs. Anything higher is an eviction leak.
	if n, max := dataDirFDs(t, dir), 2; n > max {
		t.Fatalf("%d data-dir FDs open with MaxDBs=2; evictions leak segment handles", n)
	}

	// The first DB was evicted; reloading serves its durable mutated
	// state (version 2), not its initial facts.
	var db dbResponse
	if code := post(t, ts.URL+"/v1/dbs", dbRequest{Facts: "E(a0,b0)."}, &db); code != 200 {
		t.Fatalf("reload: status %d", code)
	}
	if db.ID != ids[0] || db.Version != 2 || db.Facts != 2 {
		t.Fatalf("evicted DB reloaded as %+v, want version 2 with 2 facts", db)
	}
	if n, max := dataDirFDs(t, dir), 2; n > max {
		t.Fatalf("%d data-dir FDs open after reload; eviction leaked a handle", n)
	}
}
