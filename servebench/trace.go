package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"guardedrules/internal/server"
)

// A traced run replays the set-up and the first ops of a workload's
// stream twice, both in this process:
//
//  1. through Handler().ServeHTTP of an in-process server.New set up
//     like `rulekit serve`, timing each request (server.handler_*) and
//     counting allocations and server counters;
//  2. as the same sequence of calls into each layer's public functions
//     (parse, compile, plan, evaluate, clone, journal, encode), each
//     wrapped in a span. See pipeline.go.
//
// Layer times come from the spans; coverage compares the spans of each
// op type with the handler's time for it.

// serveConfig mirrors `rulekit serve`'s default flags.
func serveConfig(dataDir string) server.Config {
	cfg := server.Config{
		MaxDBs:         32,
		DefaultTimeout: 30 * time.Second,
		MaxFacts:       1_000_000,
		MaxQueueWait:   time.Second,
		MaxBodyBytes:   4 << 20,
		MaxSubs:        64,
		DataDir:        dataDir,
	}
	cfg.Store.MaxKBs = 32
	cfg.Store.MaxPlansPerKB = 64
	cfg.Store.CompileTimeout = 30 * time.Second
	return cfg
}

// inProcess sends requests straight to a handler.
type inProcess struct{ h http.Handler }

func (p inProcess) send(rq request) (int, []byte, error) {
	body := io.Reader(http.NoBody)
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	req := httptest.NewRequest(rq.method, rq.path, body)
	if rq.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), nil
}

// stream is an in-process SSE subscription: the handler writes into a
// pipe that a subscriber folds.
type stream struct {
	cancel context.CancelFunc
	done   chan struct{}
	sub    *subscriber
}

// pipeWriter is the response writer of an in-process stream.
type pipeWriter struct {
	w      *io.PipeWriter
	header http.Header
}

func (p *pipeWriter) Header() http.Header         { return p.header }
func (p *pipeWriter) WriteHeader(int)             {}
func (p *pipeWriter) Write(b []byte) (int, error) { return p.w.Write(b) }
func (p *pipeWriter) Flush()                      {}

func (p inProcess) subscribe(rq request) (*stream, error) {
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(rq.method, rq.path, bytes.NewReader(rq.body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	s := &stream{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		p.h.ServeHTTP(&pipeWriter{w: pw, header: http.Header{}}, req)
		pw.Close()
	}()
	s.sub = newSubscriber(pr)
	if err := s.sub.awaitSnapshot(30 * time.Second); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close ends the handler (the subscriber keeps draining the pipe until
// the handler returns), then the subscriber.
func (s *stream) close() {
	s.cancel()
	<-s.done
	s.sub.close()
}

// handlerReplay is what the in-process handler replay measured.
type handlerReplay struct {
	rec           recorder
	counters      map[string]int64
	allocs, bytes uint64
}

func replayHandler(cfg config, w workload) (*handlerReplay, error) {
	dataDir := ""
	if w.durable() {
		dataDir = filepath.Join(cfg.workDir, "handler-data")
	}
	srv := server.New(serveConfig(dataDir))
	if err := srv.RestoreData(); err != nil {
		return nil, err
	}
	p := inProcess{h: srv.Handler()}
	var streams []*stream
	defer func() {
		for _, s := range streams {
			s.close()
		}
		srv.BeginDrain()
		if err := srv.CloseData(); err != nil {
			fmt.Fprintf(os.Stderr, "servebench: closing replay data: %v\n", err)
		}
	}()
	for _, rq := range w.setup() {
		if rq.kind == "subscribe" {
			s, err := p.subscribe(rq)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			streams = append(streams, s)
			continue
		}
		status, body, err := p.send(rq)
		if err := verdict(rq, status, body, err); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	before, err := metricsOf(p)
	if err != nil {
		return nil, err
	}
	hr := &handlerReplay{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < cfg.traceOps; i++ {
		runOp(p, &hr.rec, w.op(i))
	}
	runtime.ReadMemStats(&m1)
	hr.allocs, hr.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	after, err := metricsOf(p)
	if err != nil {
		return nil, err
	}
	hr.counters = metricsDelta(before, after, serverCounters)
	if m, ok := w.(*mutateLive); ok {
		subs := make([]*subscriber, len(streams))
		for k, s := range streams {
			subs[k] = s.sub
		}
		if err := m.checkLive(p, subs); err != nil {
			hr.rec.problem("live-query invariant: " + err.Error())
		}
	}
	return hr, nil
}

// runTrace is a traced run: the handler replay, then the span replay.
func runTrace(cfg config, w workload) (*result, error) {
	if err := w.prepare(cfg.seed); err != nil {
		return nil, err
	}
	hr, err := replayHandler(cfg, w)
	if err != nil {
		return nil, err
	}
	p := newPipeline(w.durable(), filepath.Join(cfg.workDir, "pipeline-data"))
	defer p.close()
	for _, rq := range w.setup() {
		if err := p.exec("setup", rq); err != nil {
			return nil, fmt.Errorf("traced setup: %w", err)
		}
	}
	for i := 0; i < cfg.traceOps; i++ {
		for _, rq := range w.op(i) {
			if err := p.exec(fmt.Sprintf("op%d", i), rq); err != nil {
				hr.rec.problem("traced replay: " + err.Error())
			}
		}
	}
	if cfg.traceOut != "" {
		blob, err := json.Marshal(p.t.spans)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(cfg.traceOut, blob, 0o644); err != nil {
			return nil, err
		}
	}

	res := newResult(&hr.rec)
	ops := float64(max(hr.rec.attempted, 1))
	res.set("server.handler_ms", median(hr.rec.primary.ms), "ms")
	res.set("server.handler_side_ms", median(hr.rec.side.ms), "ms")
	coverage, byKind := p.coverage(hr.rec.kinds)
	res.set("trace.coverage", coverage, "ratio")
	times := p.layerTimes()
	for _, l := range layerMetrics {
		res.set(l.metric, times[l.prefix], "ms")
	}
	c := hr.counters
	res.set("server.admitted_heavy", float64(c["admitted_heavy"]), "count")
	res.set("server.admitted_light", float64(c["admitted_light"]), "count")
	res.set("server.shed", float64(c["shed_heavy"]+c["shed_light"]), "count")
	res.set("server.subs_events", float64(c["subs_events"]), "count")
	res.set("server.fact_batches", float64(c["fact_batches"]), "count")
	res.set("server.db_evictions", float64(c["db_evictions"]), "count")
	res.set("kbcache.kb_evictions", float64(c["kb_evictions"]), "count")
	res.set("kbcache.plan_hit_ratio", ratio(c["plan_hits"], c["plan_hits"]+c["plan_misses"]), "ratio")
	res.set("hom.round_plans", float64(c["join_round_plans"]), "count")
	res.set("hom.hash_tables", float64(c["join_hash_tables"]), "count")
	res.set("hom.probe_steps", float64(c["join_probe_steps"]), "count")
	res.set("datalog.facts_derived", float64(p.counts.factsDerived), "count")
	res.set("translate.rules_out", float64(p.counts.datalogRules), "count")
	res.set("translate.closure_rules", float64(p.counts.closureRules), "count")
	res.set("translate.yield", ratio(p.counts.datalogRules, p.counts.closureRules), "ratio")
	res.set("rewrite.rules_out", float64(p.counts.rewriteRules), "count")
	res.set("segment.disk_bytes_per_fact", p.diskBytesPerFact(), "B")
	res.set("runtime.allocs_per_op", float64(hr.allocs)/ops, "count")
	res.set("runtime.bytes_per_op", float64(hr.bytes)/ops, "B")
	res.meta["trace_ops"] = cfg.traceOps
	res.meta["spans"] = len(p.t.spans)
	res.meta["coverage_by_op_type"] = byKind
	res.meta["handler_p50_ms_by_op_type"] = kindMedians(hr.rec.kinds)
	return res, nil
}

// layerMetrics maps span-name prefixes to the per-layer time metrics:
// the summed time of the layer's spans over the replay, set-up
// included. Layers nest: a kbcache call's time includes the analysis,
// translation, datalog and clone spans re-executed beneath it, and a
// datalog evaluation's includes the clone of its input.
var layerMetrics = []struct{ prefix, metric string }{
	{"codec", "server.codec_ms"},
	{"parser", "parser.ms"},
	{"analysis", "analysis.ms"},
	{"translate", "translate.ms"},
	{"kbcache", "kbcache.ms"},
	{"datalog", "datalog.ms"},
	{"store", "store.ms"},
}

func ratio[T int64 | int | float64](num, den T) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func kindMedians(kinds map[string]*latencies) map[string]float64 {
	out := map[string]float64{}
	for k, l := range kinds {
		out[k] = median(l.ms)
	}
	return out
}

// tracer records spans in memory.
type tracer struct {
	t0    time.Time
	op    string
	spans []span
}

// span is one timed call. A span whose parent is a request root is a
// call the server makes directly; deeper spans re-execute, on the same
// input, a call the layer above made internally, since the program has
// no spans of its own.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     string `json:"op_id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// run records fn as span name under parent and returns the span's id.
func (t *tracer) run(parent int, name string, fn func()) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: t.op, Start: int64(time.Since(t.t0))})
	fn()
	t.spans[id-1].End = int64(time.Since(t.t0))
	return id
}

// layer is the metric prefix of a span: database and segment spans are
// both the storage layer.
func layer(name string) string {
	l, _, _ := strings.Cut(name, ".")
	if l == "database" || l == "segment" {
		return "store"
	}
	return l
}

// layerTimes sums the duration of each layer's spans in milliseconds.
func (p *pipeline) layerTimes() map[string]float64 {
	out := map[string]float64{}
	for _, s := range p.t.spans {
		if s.Parent != 0 {
			out[layer(s.Name)] += float64(s.dur()) / float64(time.Millisecond)
		}
	}
	return out
}

// directTimes sums, per op type, the spans of the calls the server
// makes directly (children of a request root), set-up excluded.
func (p *pipeline) directTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range p.t.spans {
		if s.Parent == 0 || s.Op == "setup" {
			continue
		}
		if root := p.t.spans[s.Parent-1]; root.Parent == 0 {
			out[strings.TrimPrefix(root.Name, "request.")] += s.dur()
		}
	}
	return out
}

// coverage is the share of the handler's time that the replay's direct
// layer calls account for: over all ops, and per op type.
func (p *pipeline) coverage(handler map[string]*latencies) (all float64, byKind map[string]float64) {
	direct := p.directTimes()
	byKind = map[string]float64{}
	var spans, total float64
	for kind, l := range handler {
		var sum float64
		for _, ms := range l.ms {
			sum += ms
		}
		d := float64(direct[kind]) / float64(time.Millisecond)
		spans, total = spans+d, total+sum
		if sum > 0 {
			byKind[kind] = d / sum
		}
	}
	return ratio(spans, total), byKind
}
