package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The mutation workload drives a second, mutable DB (disjoint constants
// from the hot fixtures, whose reference answer sets must stay frozen):
// workers post add/retract batches while one subscriber per level holds
// a live query over the same DB and folds the SSE delta stream into its
// snapshot. At level end the harness checks the subscriber invariant —
// snapshot + accumulated deltas must equal a fresh exact query — which
// fails if the server ever loses, duplicates, or mis-orders a delta.

const (
	mutCQ    = "T(X,Y) -> Ans(X,Y)."
	mutNodes = 13
)

func mutFacts() string {
	var b strings.Builder
	for i := 0; i < mutNodes-1; i++ {
		fmt.Fprintf(&b, "E(u%d,u%d). ", i, i+1)
	}
	return b.String()
}

// opMutate posts one add-or-retract batch against the mutable DB.
func (h *harness) opMutate(rng *rand.Rand) {
	fact := fmt.Sprintf("E(u%d,u%d).", rng.Intn(mutNodes), rng.Intn(mutNodes))
	body := map[string]string{}
	if rng.Intn(100) < 60 {
		body["add"] = fact
	} else {
		body["retract"] = fact
	}
	code, err := h.postChecked429("/v1/dbs/"+h.mutDBID+"/facts", body, nil)
	h.recordByStatus("facts_batch", code, err, 200)
}

// subscriber is one live SSE stream plus the answer set it maintains
// from the snapshot and every delta event.
type subscriber struct {
	h    *harness
	resp *http.Response
	done chan struct{}

	mu      sync.Mutex
	acc     map[string]bool
	version atomic.Uint64 // last event version seen
	events  atomic.Int64
}

// startSubscriber registers a live query over the mutable DB; nil means
// registration failed (already recorded as a violation).
func (h *harness) startSubscriber() *subscriber {
	blob, _ := json.Marshal(map[string]string{"theory_id": h.thID, "cq": mutCQ})
	req, err := http.NewRequest(http.MethodPost, h.base+"/v1/dbs/"+h.mutDBID+"/subscribe", bytes.NewReader(blob))
	if err != nil {
		h.violate("subscribe: building request: %v", err)
		return nil
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.streamClient.Do(req)
	if err != nil {
		h.violate("subscribe: %v", err)
		return nil
	}
	if resp.StatusCode != 200 {
		resp.Body.Close()
		h.violate("subscribe: status %d", resp.StatusCode)
		return nil
	}
	s := &subscriber{h: h, resp: resp, done: make(chan struct{}), acc: map[string]bool{}}
	go s.loop()
	return s
}

// loop parses SSE frames until the server or finishSubscriber closes
// the stream.
func (s *subscriber) loop() {
	defer close(s.done)
	defer s.resp.Body.Close()
	sc := bufio.NewScanner(s.resp.Body)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event != "":
			s.handle(event, data)
			event, data = "", ""
		}
	}
}

func (s *subscriber) handle(event, data string) {
	s.events.Add(1)
	switch event {
	case "snapshot":
		var snap struct {
			Version uint64     `json:"version"`
			Answers [][]string `json:"answers"`
		}
		if err := json.Unmarshal([]byte(data), &snap); err != nil {
			s.h.violate("subscriber: bad snapshot payload: %v", err)
			return
		}
		s.mu.Lock()
		for _, row := range snap.Answers {
			s.acc[fmt.Sprint(row)] = true
		}
		s.mu.Unlock()
		s.version.Store(snap.Version)
	case "delta":
		var d struct {
			Version uint64     `json:"version"`
			Added   [][]string `json:"added"`
			Removed [][]string `json:"removed"`
		}
		if err := json.Unmarshal([]byte(data), &d); err != nil {
			s.h.violate("subscriber: bad delta payload: %v", err)
			return
		}
		if last := s.version.Load(); d.Version <= last {
			s.h.violate("subscriber: delta version %d after %d (out of order)", d.Version, last)
		}
		s.mu.Lock()
		for _, row := range d.Added {
			s.acc[fmt.Sprint(row)] = true
		}
		for _, row := range d.Removed {
			delete(s.acc, fmt.Sprint(row))
		}
		s.mu.Unlock()
		s.version.Store(d.Version)
	case "error":
		// The mutation workload never injects faults into its own batches,
		// so a dropped subscriber is a real serving failure.
		s.h.violate("subscriber dropped by server: %s", data)
	}
}

// finishSubscriber quiesces the stream and checks the invariant. The
// workers are already stopped; a sentinel batch (a fact outside the
// query's relations) bumps the version one final time, and commit-order
// delivery guarantees that seeing the sentinel's delta means every
// earlier delta arrived too.
func (h *harness) finishSubscriber(s *subscriber) {
	if s == nil {
		return
	}
	defer func() {
		s.resp.Body.Close()
		<-s.done
	}()

	var fr struct {
		Version uint64 `json:"version"`
	}
	sentinel := map[string]string{"add": fmt.Sprintf("SubSync(s%d).", h.novel.Add(1))}
	committed := false
	for attempt := 0; attempt < 20 && !committed; attempt++ {
		code, err := h.post("/v1/dbs/"+h.mutDBID+"/facts", sentinel, &fr)
		switch {
		case err == nil && code == 200:
			committed = true
		case code == 429:
			time.Sleep(50 * time.Millisecond) // tier still draining
		default:
			h.violate("subscriber sentinel batch: code %d err %v", code, err)
			return
		}
	}
	if !committed {
		h.violate("subscriber sentinel batch: shed on every attempt")
		return
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && s.version.Load() < fr.Version {
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.version.Load(); got < fr.Version {
		h.violate("subscriber: stream stuck at version %d, sentinel committed %d", got, fr.Version)
		return
	}

	ref, err := h.mutReferenceAnswers()
	if err != nil {
		h.violate("subscriber reference query: %v", err)
		return
	}
	s.mu.Lock()
	got := make([]string, 0, len(s.acc))
	for k := range s.acc {
		got = append(got, k)
	}
	s.mu.Unlock()
	want := make([]string, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		h.violate("subscriber invariant: snapshot+deltas (%d answers) != exact recompute (%d answers)", len(got), len(want))
	}
}

// mutReferenceAnswers recomputes the subscribed query exactly.
func (h *harness) mutReferenceAnswers() (map[string]bool, error) {
	var res struct {
		Answers [][]string `json:"answers"`
		Exact   bool       `json:"exact"`
	}
	// The plan is hot by construction (the subscription interned it), so
	// this is light-tier work that cannot be shed by a draining heavy gate.
	code, err := h.post("/v1/query", map[string]any{"theory_id": h.thID, "db_id": h.mutDBID, "cq": mutCQ}, &res)
	if err != nil || code != 200 || !res.Exact {
		return nil, fmt.Errorf("code %d exact %v err %v", code, res.Exact, err)
	}
	set := make(map[string]bool, len(res.Answers))
	for _, a := range res.Answers {
		set[fmt.Sprint(a)] = true
	}
	return set, nil
}
