package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"guardedrules/internal/kb"
	"guardedrules/internal/kbcache"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	Name string
	Data string
}

// sseStream opens a subscription and feeds parsed events to a channel;
// the channel closes when the server ends the stream.
func sseStream(t *testing.T, url string, body any) (<-chan sseEvent, func()) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		var e errorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		t.Fatalf("subscribe: status %d: %+v", resp.StatusCode, e)
	}
	events := make(chan sseEvent, 64)
	go func() {
		defer close(events)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		var cur sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				cur.Name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.Data = strings.TrimPrefix(line, "data: ")
			case line == "" && cur.Name != "":
				events <- cur
				cur = sseEvent{}
			}
		}
	}()
	return events, func() { resp.Body.Close() }
}

func waitEvent(t *testing.T, ch <-chan sseEvent, want string) sseEvent {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatalf("stream closed while waiting for %q event", want)
		}
		if ev.Name != want {
			t.Fatalf("event %q (%s), want %q", ev.Name, ev.Data, want)
		}
		return ev
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %q event", want)
	}
	return sseEvent{}
}

// A mutation batch bumps the DB version atomically: queries pin a
// snapshot, re-loading the same fact source does not reset a mutated
// DB, and retract-then-add semantics hold within one batch.
func TestFactsBatchVersioning(t *testing.T) {
	ts := newTestServer(t)
	thID, dbID := registerFixtures(t, ts.URL)

	q := queryRequest{TheoryID: thID, DBID: dbID, CQ: "T(X,Y) -> Ans(X,Y)."}
	var before queryResponse
	if code := post(t, ts.URL+"/v1/query", q, &before); code != 200 {
		t.Fatalf("query: status %d", code)
	}
	if before.DBVersion != 1 {
		t.Fatalf("fresh DB version = %d, want 1", before.DBVersion)
	}

	// Extend the path: one new edge closes v3 -> v4 transitively.
	var fr factsResponse
	if code := post(t, ts.URL+"/v1/dbs/"+dbID+"/facts", factsRequest{Add: "E(v3,v4)."}, &fr); code != 200 {
		t.Fatalf("facts: status %d", code)
	}
	if fr.Version != 2 || fr.Added != 1 || fr.Retracted != 0 {
		t.Fatalf("batch response %+v, want version 2, 1 added", fr)
	}
	var after queryResponse
	post(t, ts.URL+"/v1/query", q, &after)
	if after.DBVersion != 2 || after.Count != before.Count+4 {
		t.Fatalf("after insert: version=%d count=%d (before %d); want version 2 and +4 reachability pairs",
			after.DBVersion, after.Count, before.Count)
	}

	// Retract the edge again; the closure shrinks back to the original.
	post(t, ts.URL+"/v1/dbs/"+dbID+"/facts", factsRequest{Retract: "E(v3,v4)."}, &fr)
	if fr.Version != 3 || fr.Retracted != 1 {
		t.Fatalf("retract batch %+v, want version 3, 1 retracted", fr)
	}
	var back queryResponse
	post(t, ts.URL+"/v1/query", q, &back)
	if back.Count != before.Count {
		t.Fatalf("after retract: count=%d, want %d", back.Count, before.Count)
	}

	// A batch retracting and re-adding the same fact leaves it present
	// (retractions apply first) and still commits one version.
	post(t, ts.URL+"/v1/dbs/"+dbID+"/facts", factsRequest{Add: "E(v0,v1).", Retract: "E(v0,v1)."}, &fr)
	if fr.Version != 4 {
		t.Fatalf("cancel batch version = %d, want 4", fr.Version)
	}
	var cancel queryResponse
	post(t, ts.URL+"/v1/query", q, &cancel)
	if cancel.Count != before.Count {
		t.Fatalf("cancel batch changed answers: %d, want %d", cancel.Count, before.Count)
	}

	// Re-loading the original fact source must not reset the mutated DB:
	// the id is content-addressed, the entry keeps its version history.
	var db dbResponse
	post(t, ts.URL+"/v1/dbs", dbRequest{Facts: e5Facts}, &db)
	if db.ID != dbID || db.Version != 4 {
		t.Fatalf("reload: id=%q version=%d, want the live entry at version 4", db.ID, db.Version)
	}

	// Unknown DB and empty batches are typed client errors.
	if code := post(t, ts.URL+"/v1/dbs/nope/facts", factsRequest{Add: "E(a,b)."}, nil); code != 404 {
		t.Fatalf("unknown db: status %d, want 404", code)
	}
	if code := post(t, ts.URL+"/v1/dbs/"+dbID+"/facts", factsRequest{}, nil); code != 400 {
		t.Fatalf("empty batch: status %d, want 400", code)
	}
}

// A subscription streams a snapshot then one delta per committed batch,
// and snapshot + accumulated deltas always equals a fresh query.
func TestSubscribeDeltaStream(t *testing.T) {
	ts := newTestServer(t)
	thID, dbID := registerFixtures(t, ts.URL)
	followDeltas(t, ts.URL, thID, dbID, "T(X,Y) -> Ans(X,Y).", []factsRequest{
		{Add: "E(v3,v4)."},
		{Retract: "E(v1,v2)."},
	})
}

// /facts accepts explicit ACDom facts. Retracting one that an earlier
// batch added must take its consequences along in the subscription's
// stream too, though they support the ACDom fact circularly.
func TestSubscribeRetractAddedACDom(t *testing.T) {
	ts := newTestServer(t)
	var th theoryResponse
	if code := post(t, ts.URL+"/v1/theories", theoryRequest{Source: "ACDom(X) -> Dom(X)."}, &th); code != 200 {
		t.Fatalf("theories: status %d", code)
	}
	var db dbResponse
	if code := post(t, ts.URL+"/v1/dbs", dbRequest{Facts: "S(a)."}, &db); code != 200 {
		t.Fatalf("dbs: status %d", code)
	}
	followDeltas(t, ts.URL, th.ID, db.ID, "Dom(X) -> Ans(X).", []factsRequest{
		{Add: "ACDom(d)."},
		{Retract: "ACDom(d)."},
	})
}

// followDeltas subscribes to cq over the DB, applies each batch, and
// requires after every batch that the snapshot plus the accumulated
// deltas equals a fresh query's answers.
func followDeltas(t *testing.T, base, thID, dbID, cq string, steps []factsRequest) {
	t.Helper()
	events, closeStream := sseStream(t, base+"/v1/dbs/"+dbID+"/subscribe",
		subscribeRequest{TheoryID: thID, CQ: cq})
	defer closeStream()

	var snap snapshotEvent
	if err := json.Unmarshal([]byte(waitEvent(t, events, "snapshot").Data), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != 1 || len(snap.Answers) == 0 || snap.PlanKey == "" {
		t.Fatalf("snapshot %+v, want version 1 with answers and a plan key", snap)
	}

	// Accumulate deltas into the snapshot across the batches.
	acc := make(map[string]bool)
	for _, row := range snap.Answers {
		acc[fmt.Sprint(row)] = true
	}
	for i, step := range steps {
		var fr factsResponse
		if code := post(t, base+"/v1/dbs/"+dbID+"/facts", step, &fr); code != 200 {
			t.Fatalf("step %d: status %d", i, code)
		}
		if fr.Subscribers != 1 {
			t.Fatalf("step %d: subscribers = %d, want 1", i, fr.Subscribers)
		}
		var d deltaEvent
		if err := json.Unmarshal([]byte(waitEvent(t, events, "delta").Data), &d); err != nil {
			t.Fatal(err)
		}
		if d.Version != fr.Version {
			t.Fatalf("step %d: delta version %d, batch version %d", i, d.Version, fr.Version)
		}
		for _, row := range d.Added {
			acc[fmt.Sprint(row)] = true
		}
		for _, row := range d.Removed {
			delete(acc, fmt.Sprint(row))
		}

		var fresh queryResponse
		post(t, base+"/v1/query", queryRequest{TheoryID: thID, DBID: dbID, CQ: cq}, &fresh)
		want := make([]string, 0, len(fresh.Answers))
		for _, row := range fresh.Answers {
			want = append(want, fmt.Sprint(row))
		}
		got := make([]string, 0, len(acc))
		for k := range acc {
			got = append(got, k)
		}
		sort.Strings(want)
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: accumulated answers diverge from recompute:\n got %v\nwant %v", i, got, want)
		}
	}
}

// A CQ whose plan falls back to a per-query bounded chase is rejected
// at registration with 422 and the typed kind.
func TestSubscribeRejectsChasePlan(t *testing.T) {
	ts := newTestServer(t)
	var th theoryResponse
	// Weakly guarded: compiles to chase mode, every CQ plan chases per call.
	src := `
		P(X) -> exists Y,Z. R(X,Y,Z).
		R(X,Y,Z) -> S(Y,Z).
		S(Y,Z), S(Z,W) -> S(Y,W).
	`
	if code := post(t, ts.URL+"/v1/theories", theoryRequest{Source: src}, &th); code != 200 {
		t.Fatalf("theories: status %d", code)
	}
	var db dbResponse
	post(t, ts.URL+"/v1/dbs", dbRequest{Facts: "P(a)."}, &db)

	buf, _ := json.Marshal(subscribeRequest{TheoryID: th.ID, CQ: "S(Y,Z) -> Ans(Y,Z)."})
	resp, err := http.Post(ts.URL+"/v1/dbs/"+db.ID+"/subscribe", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e errorResponse
	json.NewDecoder(resp.Body).Decode(&e)
	if resp.StatusCode != 422 || e.Kind != "not_maintainable" {
		t.Fatalf("chase-plan subscription: status %d kind %q, want 422 not_maintainable", resp.StatusCode, e.Kind)
	}
}

// The server-wide subscription cap sheds registrations with 429.
func TestSubscribeCap(t *testing.T) {
	srv := New(Config{DefaultTimeout: 10 * time.Second, MaxSubs: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	thID, dbID := registerFixtures(t, ts.URL)

	events, closeStream := sseStream(t, ts.URL+"/v1/dbs/"+dbID+"/subscribe",
		subscribeRequest{TheoryID: thID, CQ: "T(X,Y) -> Ans(X,Y)."})
	defer closeStream()
	waitEvent(t, events, "snapshot")

	buf, _ := json.Marshal(subscribeRequest{TheoryID: thID, CQ: "B(X) -> Ans(X)."})
	resp, err := http.Post(ts.URL+"/v1/dbs/"+dbID+"/subscribe", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("over-cap subscription: status %d, want 429", resp.StatusCode)
	}
	var m map[string]int64
	get(t, ts.URL+"/metrics", &m)
	if m["subscriptions"] != 1 {
		t.Fatalf("subscriptions gauge = %d, want 1", m["subscriptions"])
	}
}

// BeginDrain closes live streams so http.Server.Shutdown is not held
// open by subscribers, and a chaos-failed maintenance batch drops the
// subscriber with an error event while the batch itself still commits.
func TestSubscribeDrainAndChaosDrop(t *testing.T) {
	srv := New(Config{DefaultTimeout: 10 * time.Second, Chaos: true})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	thID, dbID := registerFixtures(t, ts.URL)

	// Chaos drop: the injected budget fails the subscriber's maintenance
	// run; the batch commits and the stream ends with an error event.
	events, closeStream := sseStream(t, ts.URL+"/v1/dbs/"+dbID+"/subscribe",
		subscribeRequest{TheoryID: thID, CQ: "T(X,Y) -> Ans(X,Y)."})
	defer closeStream()
	waitEvent(t, events, "snapshot")

	var fr factsResponse
	if code := post(t, ts.URL+"/v1/dbs/"+dbID+"/facts", factsRequest{Add: "E(v3,v4).", FailAt: 1}, &fr); code != 200 {
		t.Fatalf("chaos batch: status %d", code)
	}
	if fr.Version != 2 || fr.Subscribers != 0 {
		t.Fatalf("chaos batch %+v, want committed version 2 with the subscriber dropped", fr)
	}
	waitEvent(t, events, "error")
	if _, open := <-events; open {
		t.Fatal("stream must close after the subscriber is dropped")
	}
	var m map[string]int64
	get(t, ts.URL+"/metrics", &m)
	if m["subs_dropped"] != 1 || m["fact_batches"] != 1 {
		t.Fatalf("metrics after chaos drop: dropped=%d batches=%d", m["subs_dropped"], m["fact_batches"])
	}

	// Drain: a fresh subscriber's stream ends when the server drains.
	events2, closeStream2 := sseStream(t, ts.URL+"/v1/dbs/"+dbID+"/subscribe",
		subscribeRequest{TheoryID: thID, CQ: "B(X) -> Ans(X)."})
	defer closeStream2()
	waitEvent(t, events2, "snapshot")
	srv.BeginDrain()
	select {
	case _, open := <-events2:
		if open {
			t.Fatal("unexpected event during drain; stream should just close")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not close on drain")
	}
}

// LRU eviction of a DB with live subscribers must not orphan them: each
// stream ends with a terminal error frame naming the eviction, and a
// later batch against the evicted id is a clean 404, never a 200 over a
// lost write.
func TestDBEvictionDropsSubscribers(t *testing.T) {
	srv := New(Config{DefaultTimeout: 10 * time.Second, MaxDBs: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	thID, dbID := registerFixtures(t, ts.URL)

	events, closeStream := sseStream(t, ts.URL+"/v1/dbs/"+dbID+"/subscribe",
		subscribeRequest{TheoryID: thID, CQ: "T(X,Y) -> Ans(X,Y)."})
	defer closeStream()
	waitEvent(t, events, "snapshot")

	// Loading a second DB evicts the first (MaxDBs=1).
	var db2 dbResponse
	if code := post(t, ts.URL+"/v1/dbs", dbRequest{Facts: "B(z)."}, &db2); code != 200 {
		t.Fatalf("second db load: status %d", code)
	}
	ev := waitEvent(t, events, "error")
	if !strings.Contains(ev.Data, "evicted") {
		t.Fatalf("eviction error frame %q does not name the eviction", ev.Data)
	}
	if _, open := <-events; open {
		t.Fatal("stream must close after the eviction drop")
	}

	var e errorResponse
	if code := post(t, ts.URL+"/v1/dbs/"+dbID+"/facts", factsRequest{Add: "E(x,y)."}, &e); code != 404 {
		t.Fatalf("batch against evicted db: status %d (%+v), want 404", code, e)
	}
	var m map[string]int64
	get(t, ts.URL+"/metrics", &m)
	if m["db_evictions"] != 1 || m["subs_dropped"] != 1 {
		t.Fatalf("metrics after eviction: evictions=%d dropped=%d, want 1/1", m["db_evictions"], m["subs_dropped"])
	}
}

// The commit-time membership re-check closes the lookup→commit race: a
// batch whose DB is evicted after the handler's lookup but before the
// version swap gets 409 and writes nothing, instead of 200 over an
// orphaned entry. The test parks the batch on the entry lock, evicts the
// DB, then releases the lock.
func TestFactsEvictionRaceConflicts(t *testing.T) {
	srv := New(Config{DefaultTimeout: 10 * time.Second, MaxDBs: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	_, dbID := registerFixtures(t, ts.URL)

	srv.mu.Lock()
	ent, ok := srv.dbs.Get(dbID)
	srv.mu.Unlock()
	if !ok {
		t.Fatal("fixture db missing")
	}

	// Park the batch: it passes the lookup and heavy admission, then
	// blocks on the entry lock the test is holding.
	ent.mu.Lock()
	baseline := admittedHeavy(t, ts.URL)
	batchCode := make(chan int, 1)
	go func() {
		batchCode <- post(t, ts.URL+"/v1/dbs/"+dbID+"/facts", factsRequest{Add: "E(x,y)."}, nil)
	}()
	waitCounter(t, ts.URL, "admitted_heavy", baseline+1)

	// Evict the db while the batch is parked. The eviction teardown also
	// wants the entry lock, so run it concurrently and let both proceed
	// on release; the LRU removal itself already happened under s.mu.
	evictDone := make(chan struct{})
	go func() {
		defer close(evictDone)
		if code := post(t, ts.URL+"/v1/dbs", dbRequest{Facts: "B(z)."}, nil); code != 200 {
			t.Errorf("evicting db load: status %d", code)
		}
	}()
	waitCounter(t, ts.URL, "db_evictions", 1)
	before := ent.cur.Load().version
	ent.mu.Unlock()

	if code := <-batchCode; code != 409 {
		t.Fatalf("batch over evicted entry: status %d, want 409", code)
	}
	<-evictDone
	if got := ent.cur.Load().version; got != before {
		t.Fatalf("409 batch still bumped the orphaned entry to version %d", got)
	}
}

func admittedHeavy(t *testing.T, base string) int64 {
	t.Helper()
	var m map[string]int64
	get(t, base+"/metrics", &m)
	return m["admitted_heavy"]
}

// waitCounter polls /metrics until the named counter reaches want.
func waitCounter(t *testing.T, base, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var m map[string]int64
		get(t, base+"/metrics", &m)
		if m[name] >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("counter %s never reached %d", name, want)
}

// A slow consumer is dropped with a real error frame: the delta channel
// is full by definition at drop time, so the cause must ride the
// reserved error slot and survive until the stream goroutine flushes it.
func TestSlowConsumerDropDeliversErrorFrame(t *testing.T) {
	srv := New(Config{DefaultTimeout: 10 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	thID, dbID := registerFixtures(t, ts.URL)

	ckb, ok := srv.store.Get(thID)
	if !ok {
		t.Fatal("fixture theory missing")
	}
	srv.mu.Lock()
	ent, ok := srv.dbs.Get(dbID)
	srv.mu.Unlock()
	if !ok {
		t.Fatal("fixture db missing")
	}
	q, err := kb.ParseCQ("T(X,Y) -> Ans(X,Y).")
	if err != nil {
		t.Fatal(err)
	}
	sel := ckb.CQSelector(q)
	mv, err := ckb.Maintain(context.Background(), sel, ent.cur.Load().db, kbcache.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// An unbuffered delta channel with no reader: the first batch's send
	// fails, which is exactly the slow-consumer state of a full buffer.
	ent.mu.Lock()
	key := viewKey{theory: thID, plan: sel.View()}
	sub := &subscription{view: srv.installViewLocked(ent, key, mv), sel: sel, ch: make(chan subEvent), errCh: make(chan subEvent, 1)}
	sub.view.subs[sub] = struct{}{}
	ent.mu.Unlock()

	var fr factsResponse
	if code := post(t, ts.URL+"/v1/dbs/"+dbID+"/facts", factsRequest{Add: "E(v3,v4)."}, &fr); code != 200 {
		t.Fatalf("batch: status %d", code)
	}
	if fr.Subscribers != 0 {
		t.Fatalf("subscribers after slow-consumer drop = %d, want 0", fr.Subscribers)
	}
	if _, open := <-sub.ch; open {
		t.Fatal("delta channel must be closed by the drop")
	}
	select {
	case ev := <-sub.errCh:
		if ev.event != "error" || !strings.Contains(string(ev.data), "slow consumer") {
			t.Fatalf("reserved frame = %s %q, want an error naming the slow consumer", ev.event, ev.data)
		}
	default:
		t.Fatal("no error frame reserved for the slow-consumer drop")
	}
}
