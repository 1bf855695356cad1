package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"guardedrules/internal/kbcache"
)

// mutateLive writes beside reads: an open-loop writer retracts and
// re-adds chain edges of a DB that two live queries subscribe to, while
// one closed-loop reader queries the same DB. Each batch pays a clone,
// one incremental maintenance pass per subscription and the fan-out.
type mutateLive struct {
	seed        int64
	thID, dbID  string
	facts       string
	cqRef       answerSet   // Linked on the intact DB
	atomRef     []answerSet // T(node 0, Y) per intact chain
	lateness    latencies   // writer send time minus due time
	lag         latencies   // due time until both subscribers hold the delta
	sentVersion map[uint64]time.Time
}

const (
	mutChains, mutEdges = 20, 20
	// maxRetracted bounds the edges out of the DB at once, so the
	// fixpoint size stays stationary over a run.
	maxRetracted = 8
	// batchEvery is the writer's schedule: one due time every 100 ms,
	// every slotEvery-th of them a kernel slot, so 8 batches per second.
	batchEvery = 100 * time.Millisecond
	slotEvery  = 5
	// writerConns bounds the batches in flight, so one slow batch does
	// not delay the next one's send.
	writerConns = 2
	// replayBatchEvery places one batch among every five ops of the
	// traced replay.
	replayBatchEvery = 5
)

func (w *mutateLive) durable() bool { return false }
func (w *mutateLive) cycle() int    { return 2 }

func (w *mutateLive) prepare(seed int64) error {
	w.seed = seed
	w.facts = chainFacts("m", mutChains, mutEdges)
	w.thID = kbcache.HashSource(hotSource)
	w.dbID = kbcache.HashSource(w.facts)
	rows, exact, _, _, err := referenceCQ(hotSource, w.facts, linkedCQ)
	if err != nil || !exact {
		return fmt.Errorf("mutate_live: reference: exact %v err %v", exact, err)
	}
	w.cqRef = newAnswerSet(rows)
	w.atomRef = make([]answerSet, mutChains)
	for c := range w.atomRef {
		w.atomRef[c] = chainSuffix("m", c, mutEdges)
	}
	return nil
}

func (w *mutateLive) setup() []request {
	return []request{
		theoryReq(hotSource),
		loadReq(w.facts),
		subscribeReq(w.dbID, w.thID, closureCQ),
		subscribeReq(w.dbID, w.thID, linkedCQ),
		w.read(0, classNone),
		w.read(1, classNone),
		w.batchReq(map[string]string{"add": "Warm(w0)."}, classNone),
	}
}

func subscribeReq(dbID, thID, cq string) request {
	return post("/v1/dbs/"+dbID+"/subscribe", "subscribe", map[string]string{"theory_id": thID, "cq": cq}, classNone, nil)
}

// read is reader op i: CQs and atom queries alternate. Answers shrink
// while edges are out, so they are checked against the intact DB's.
func (w *mutateLive) read(i int, cq class) request {
	if i%2 == 0 {
		return cqReq(w.thID, w.dbID, linkedCQ, cq, expectSubset(w.cqRef))
	}
	c := pick(w.seed, i, mutChains)
	return atomReq(w.thID, w.dbID, atomQuery("m", c), classNone, expectSubset(w.atomRef[c]))
}

func (w *mutateLive) batchReq(body map[string]string, c class) request {
	return post("/v1/dbs/"+w.dbID+"/facts", "facts", body, c, nil)
}

// op is the traced replay's stream: one writer batch among every five
// ops, reads in between.
func (w *mutateLive) op(i int) []request {
	if i%replayBatchEvery == 0 {
		return []request{w.batchReq(newEdgeWriter(w.seed).batchAt(i/replayBatchEvery), classPrimary)}
	}
	return []request{w.read(i, classSide)}
}

// edgeWriter generates the writer's stationary batch stream: each batch
// retracts a random present chain edge or re-adds one of at most
// maxRetracted retracted edges.
type edgeWriter struct {
	seed      int64
	i         int
	retracted []int
}

func newEdgeWriter(seed int64) *edgeWriter { return &edgeWriter{seed: seed} }

// next returns the edge index of the next batch and whether it is
// retracted (else re-added).
func (e *edgeWriter) next() (edge int, retract bool) {
	i := e.i
	e.i++
	n := len(e.retracted)
	if n >= maxRetracted || (n > 0 && pick(e.seed, 3*i, 2) == 0) {
		k := pick(e.seed, 3*i+1, n)
		edge = e.retracted[k]
		e.retracted = slices.Delete(e.retracted, k, k+1)
		return edge, false
	}
	for j := int64(0); ; j++ {
		edge = pick(e.seed+j*7919, 3*i+2, mutChains*mutEdges)
		if !slices.Contains(e.retracted, edge) {
			e.retracted = append(e.retracted, edge)
			return edge, true
		}
	}
}

// batch renders the next batch's request body.
func (e *edgeWriter) batch() map[string]string {
	edge, retract := e.next()
	c, k := edge/mutEdges, edge%mutEdges
	fact := fmt.Sprintf("E(%s,%s).", chainNode("m", c, k), chainNode("m", c, k+1))
	if retract {
		return map[string]string{"retract": fact}
	}
	return map[string]string{"add": fact}
}

// batchAt is batch n of a fresh stream.
func (e *edgeWriter) batchAt(n int) map[string]string {
	for e.i < n {
		e.next()
	}
	return e.batch()
}

// drive runs the open-loop writer and the closed-loop reader for the
// window. Batch latency runs from each batch's due time to its ack, so
// a stalled server also charges the batches queued behind it. Every
// slotEvery-th due time is a kernel slot instead of a batch: the reader
// pauses and the batches in flight are acknowledged before the kernel
// runs.
func (w *mutateLive) drive(r *e2eRun, window time.Duration) {
	start := time.Now()
	w.lateness, w.lag = latencies{}, latencies{}
	w.sentVersion = map[uint64]time.Time{}
	var (
		wg       sync.WaitGroup
		gate     sync.Mutex // the reader holds it for each op
		inflight sync.WaitGroup
	)
	slot := func() {
		gate.Lock()
		inflight.Wait()
		r.slot()
		r.openBlock()
		gate.Unlock()
	}
	slot()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; time.Since(start) < window || i%2 != 0; i++ {
			gate.Lock()
			runOp(r.c, &r.rec, []request{w.read(i, classSide)})
			gate.Unlock()
		}
	}()

	type job struct {
		due  time.Time
		body map[string]string
	}
	jobs := make(chan job)
	var mu sync.Mutex
	for s := 0; s < writerConns; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				late := time.Since(j.due)
				rq := w.batchReq(j.body, classPrimary)
				status, body, err := r.c.send(rq)
				d := time.Since(j.due)
				err = verdict(rq, status, body, err)
				var ack struct {
					Version uint64 `json:"version"`
				}
				if err == nil {
					err = json.Unmarshal(body, &ack)
				}
				if err != nil {
					r.rec.problem(err.Error())
				}
				r.rec.sample(rq, d, err == nil)
				r.rec.op(err == nil)
				mu.Lock()
				w.lateness.add(late)
				if err == nil {
					w.sentVersion[ack.Version] = j.due
				}
				mu.Unlock()
				inflight.Done()
			}
		}()
	}
	gen := newEdgeWriter(w.seed)
	for i := 1; ; i++ {
		due := start.Add(time.Duration(i) * batchEvery)
		if due.Sub(start) >= window {
			break
		}
		time.Sleep(time.Until(due))
		if i%slotEvery == 0 {
			slot()
			continue
		}
		inflight.Add(1)
		jobs <- job{due: due, body: gen.batch()}
	}
	close(jobs)
	wg.Wait()
	r.slot()
}

// checkLive is the live-query invariant: after a sentinel batch, each
// subscriber's snapshot plus deltas must equal an exact recompute.
// Commit-order delivery makes the sentinel's delta the last one due.
func (w *mutateLive) checkLive(s sender, subs []*subscriber) error {
	var ack struct {
		Version uint64 `json:"version"`
	}
	rq := w.batchReq(map[string]string{"add": "Sync(s0)."}, classNone)
	status, body, err := s.send(rq)
	if err := verdict(rq, status, body, err); err != nil {
		return fmt.Errorf("sentinel batch: %w", err)
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("sentinel batch: %w", err)
	}
	for k, cq := range []string{closureCQ, linkedCQ} {
		sub := subs[k]
		if err := sub.awaitVersion(ack.Version, 10*time.Second); err != nil {
			return fmt.Errorf("subscriber %q: %w", cq, err)
		}
		if errs := sub.problems(); len(errs) > 0 {
			return fmt.Errorf("subscriber %q: %v", cq, errs)
		}
		var exact queryReply
		rq := cqReq(w.thID, w.dbID, cq, classNone, nil)
		status, body, err := s.send(rq)
		if err := verdict(rq, status, body, err); err != nil {
			return fmt.Errorf("recompute %q: %w", cq, err)
		}
		if err := json.Unmarshal(body, &exact); err != nil || !exact.Exact {
			return fmt.Errorf("recompute %q: exact %v err %v", cq, exact.Exact, err)
		}
		if got, want := sub.answers(), newAnswerSet(exact.Answers).sorted(); !slices.Equal(got, want) {
			return fmt.Errorf("subscriber %q: snapshot+deltas hold %d answers, exact recompute %d", cq, len(got), len(want))
		}
	}
	return nil
}

// afterWindow checks the live-query invariant and that every
// acknowledged version reached both subscribers, and measures how long
// after its due time each batch's delta was held by both.
func (w *mutateLive) afterWindow(r *e2eRun) error {
	if err := w.checkLive(r.c, r.subs); err != nil {
		return err
	}
	versions := make([]uint64, 0, len(w.sentVersion))
	for v := range w.sentVersion {
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	for _, v := range versions {
		var last time.Time
		for _, s := range r.subs {
			at, ok := s.arrival(v)
			if !ok {
				return fmt.Errorf("version %d acknowledged but never delivered", v)
			}
			if at.After(last) {
				last = at
			}
		}
		w.lag.add(last.Sub(w.sentVersion[v]))
	}
	r.meta["writer_batches"] = len(versions)
	r.meta["writer_late_p95_ms"] = w.lateness.value(95)
	r.meta["delta_lag_p50_ms"] = w.lag.value(50)
	r.meta["delta_lag_p95_ms"] = w.lag.value(95)
	return nil
}
