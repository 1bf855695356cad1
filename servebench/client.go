package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// request is one HTTP call of an op. The same requests drive the
// subprocess over loopback (end-to-end runs) and the in-process handler
// (traced runs), so both check answers identically.
type request struct {
	method string
	path   string
	kind   string // op type, for per-type trace medians
	body   []byte // JSON; nil for GET
	class  class
	// check validates a 200 response body; nil accepts any 200.
	check func(body []byte) error
}

func post(path, kind string, v any, c class, check func([]byte) error) request {
	blob, err := json.Marshal(v)
	if err != nil {
		// Only maps and structs of strings are marshalled here.
		panic(fmt.Sprintf("marshal %s body: %v", kind, err))
	}
	return request{method: http.MethodPost, path: path, kind: kind, body: blob, class: c, check: check}
}

// sender performs one request, over loopback HTTP or in-process.
type sender interface {
	send(rq request) (status int, body []byte, err error)
}

// client talks to one server over loopback HTTP.
type client struct {
	base string
	hc   *http.Client
	// stream has no timeout: it holds SSE subscriptions open.
	stream *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 4}
	return &client{
		base:   base,
		hc:     &http.Client{Timeout: 60 * time.Second, Transport: tr},
		stream: &http.Client{Transport: tr},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// send performs one request and reads the whole response.
func (c *client) send(rq request) (int, []byte, error) {
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequest(rq.method, c.base+rq.path, body)
	if err != nil {
		return 0, nil, err
	}
	if rq.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	return resp.StatusCode, blob, err
}

// verdict turns a response into nil or the reason the request failed.
func verdict(rq request, status int, body []byte, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("%s %s: %w", rq.kind, rq.path, err)
	case status != http.StatusOK:
		return fmt.Errorf("%s %s: status %d: %.200s", rq.kind, rq.path, status, body)
	case rq.check != nil:
		if err := rq.check(body); err != nil {
			return fmt.Errorf("%s %s: %w", rq.kind, rq.path, err)
		}
	}
	return nil
}

// runOp performs an op's requests in order, stopping at the first
// failure (later requests depend on earlier ones), and records latency
// samples and the op's outcome.
func runOp(s sender, rec *recorder, reqs []request) {
	ok := true
	for _, rq := range reqs {
		start := time.Now()
		status, body, err := s.send(rq)
		d := time.Since(start)
		if err := verdict(rq, status, body, err); err != nil {
			rec.problem(err.Error())
			rec.sample(rq, d, false)
			ok = false
			break
		}
		rec.sample(rq, d, true)
	}
	rec.op(ok)
}

// must performs set-up requests, failing on the first bad response.
func (c *client) must(reqs ...request) error {
	for _, rq := range reqs {
		status, body, err := c.send(rq)
		if err := verdict(rq, status, body, err); err != nil {
			return err
		}
	}
	return nil
}

// rowKey renders an answer row as a map key.
func rowKey(row []string) string { return strings.Join(row, "\x00") }

// answerSet is a set of answer rows.
type answerSet map[string]bool

func newAnswerSet(rows [][]string) answerSet {
	s := make(answerSet, len(rows))
	for _, r := range rows {
		s[rowKey(r)] = true
	}
	return s
}

func (s answerSet) sorted() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// queryReply is the part of a /v1/query response the checks read.
type queryReply struct {
	Answers [][]string `json:"answers"`
	Exact   bool       `json:"exact"`
}

// expectAnswers checks that a query returned exactly want. A body equal
// to the last one it verified passes without parsing, which keeps the
// client's CPU use small beside the server's on repeated reads.
func expectAnswers(want answerSet) func([]byte) error {
	var (
		mu       sync.Mutex
		verified []byte
	)
	return func(body []byte) error {
		mu.Lock()
		defer mu.Unlock()
		if verified != nil && bytes.Equal(body, verified) {
			return nil
		}
		var r queryReply
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if !r.Exact {
			return errors.New("answer not exact")
		}
		if len(r.Answers) != len(want) {
			return fmt.Errorf("%d answers, reference has %d", len(r.Answers), len(want))
		}
		for _, row := range r.Answers {
			if !want[rowKey(row)] {
				return fmt.Errorf("answer %v not in the reference", row)
			}
		}
		verified = append(verified[:0], body...)
		return nil
	}
}

// expectSubset checks that an exact query returned a subset of bound:
// the answers of a DB whose facts are a subset of the reference's.
func expectSubset(bound answerSet) func([]byte) error {
	return func(body []byte) error {
		var r queryReply
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if !r.Exact {
			return errors.New("answer not exact")
		}
		for _, row := range r.Answers {
			if !bound[rowKey(row)] {
				return fmt.Errorf("answer %v not in the unmutated reference", row)
			}
		}
		return nil
	}
}

// subscriber is one live SSE stream: it folds the snapshot and every
// delta into an answer set and notes when each version arrived.
type subscriber struct {
	body io.ReadCloser
	done chan struct{}
	snap chan struct{} // closed once the snapshot is folded in

	mu      sync.Mutex
	acc     answerSet
	version uint64
	arrived map[uint64]time.Time
	errs    []string
}

// newSubscriber folds the SSE stream read from body in a goroutine
// until body ends or is closed.
func newSubscriber(body io.ReadCloser) *subscriber {
	s := &subscriber{
		body:    body,
		done:    make(chan struct{}),
		snap:    make(chan struct{}),
		acc:     answerSet{},
		arrived: map[uint64]time.Time{},
	}
	go s.loop()
	return s
}

// subscribe opens the live query of a subscribe request and waits for
// its snapshot.
func (c *client) subscribe(rq request) (*subscriber, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.stream.Do(req)
	if err != nil {
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	s := newSubscriber(resp.Body)
	if err := s.awaitSnapshot(30 * time.Second); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *subscriber) awaitSnapshot(timeout time.Duration) error {
	select {
	case <-s.snap:
		return nil
	case <-s.done:
		return errors.New("subscription ended before its snapshot")
	case <-time.After(timeout):
		return errors.New("no subscription snapshot within timeout")
	}
}

func (s *subscriber) loop() {
	defer close(s.done)
	sc := bufio.NewScanner(s.body)
	sc.Buffer(make([]byte, 64<<10), 64<<20) // snapshots of thousands of rows
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event != "":
			s.handle(event, data, time.Now())
			event, data = "", ""
		}
	}
}

func (s *subscriber) fail(format string, args ...any) {
	if len(s.errs) < 10 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

func (s *subscriber) handle(event, data string, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch event {
	case "snapshot":
		var snap struct {
			Version uint64     `json:"version"`
			Answers [][]string `json:"answers"`
		}
		if err := json.Unmarshal([]byte(data), &snap); err != nil {
			s.fail("bad snapshot: %v", err)
			return
		}
		s.acc = newAnswerSet(snap.Answers)
		s.version = snap.Version
		close(s.snap)
	case "delta":
		var d struct {
			Version uint64     `json:"version"`
			Added   [][]string `json:"added"`
			Removed [][]string `json:"removed"`
		}
		if err := json.Unmarshal([]byte(data), &d); err != nil {
			s.fail("bad delta: %v", err)
			return
		}
		if d.Version != s.version+1 {
			s.fail("delta version %d after %d", d.Version, s.version)
		}
		for _, row := range d.Added {
			s.acc[rowKey(row)] = true
		}
		for _, row := range d.Removed {
			delete(s.acc, rowKey(row))
		}
		s.version = d.Version
		s.arrived[d.Version] = at
	case "error":
		s.fail("subscription dropped by the server: %s", data)
	}
}

// awaitVersion waits until the stream has folded in version v.
func (s *subscriber) awaitVersion(v uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		cur := s.version
		s.mu.Unlock()
		if cur >= v {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stream stuck at version %d, want %d", cur, v)
		}
		select {
		case <-s.done:
			return fmt.Errorf("stream ended at version %d, want %d", cur, v)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// answers returns the folded answer rows, sorted.
func (s *subscriber) answers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acc.sorted()
}

func (s *subscriber) arrival(v uint64) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.arrived[v]
	return t, ok
}

func (s *subscriber) problems() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.errs...)
}

// close ends the stream and waits for the reader goroutine.
func (s *subscriber) close() {
	s.body.Close()
	<-s.done
}
