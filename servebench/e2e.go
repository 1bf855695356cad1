package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"
)

// e2eRun is one end-to-end run: a server subprocess driven over
// loopback HTTP from this process.
type e2eRun struct {
	cfg     config
	w       workload
	srv     *serverProc
	c       *client
	subs    []*subscriber
	dataDir string
	rec     recorder
	meta    map[string]any

	kernels    []float64 // kernel times of the window's slots, in ms
	blockStart time.Time
}

// blockLen is the shortest block between two kernel slots.
const blockLen = 500 * time.Millisecond

// slot closes the open block, if any, and times the kernel. Callers make
// sure that no request is in flight, so the kernel sees the machine as
// the requests around it saw it, without their load.
func (r *e2eRun) slot() {
	if b := r.rec.current(); b != nil {
		b.dur = time.Since(r.blockStart)
	}
	r.kernels = append(r.kernels, kernel())
}

// openBlock starts the next block of the window.
func (r *e2eRun) openBlock() {
	r.blockStart = time.Now()
	r.rec.openBlock()
}

// windowRunner is a workload that runs its window itself instead of
// one closed-loop client walking the op stream.
type windowRunner interface {
	drive(r *e2eRun, window time.Duration)
}

// afterChecker is a workload with an untimed correctness check after
// the window.
type afterChecker interface {
	afterWindow(r *e2eRun) error
}

func (r *e2eRun) serverArgs() []string {
	if r.w.durable() {
		return []string{"-data-dir", r.dataDir}
	}
	return nil
}

func (r *e2eRun) start() error {
	srv, err := startServer(r.cfg.serverBin, r.serverArgs()...)
	if err != nil {
		return err
	}
	r.srv, r.c = srv, newClient(srv.base)
	return nil
}

// restart boots a new server on the same flags and data dir.
func (r *e2eRun) restart() error {
	r.stop()
	return r.start()
}

// stop kills the server and ends every subscription stream.
func (r *e2eRun) stop() {
	for _, s := range r.subs {
		s.close()
	}
	r.subs = nil
	if r.srv != nil {
		r.srv.kill()
		r.c.close()
		r.srv = nil
	}
}

// setup replays the workload's set-up requests, opening subscriptions
// where the stream asks for them.
func (r *e2eRun) setup() error {
	for _, rq := range r.w.setup() {
		if rq.kind == "subscribe" {
			s, err := r.c.subscribe(rq)
			if err != nil {
				return err
			}
			r.subs = append(r.subs, s)
			continue
		}
		if err := r.c.must(rq); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
	}
	return nil
}

// closedLoop walks the op stream with one client until the window has
// passed and the stream is at a cycle boundary. The next op's requests
// are built while the current one is in flight, so input generation
// stays out of the server's throughput. A kernel slot falls between two
// ops once the open block has lasted blockLen.
func (r *e2eRun) closedLoop(window time.Duration) {
	ops := make(chan []request, 1)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case ops <- r.w.op(i):
			case <-stop:
				return
			}
		}
	}()
	start := time.Now()
	r.slot()
	r.openBlock()
	for i := 0; time.Since(start) < window || i%r.w.cycle() != 0; i++ {
		if time.Since(r.blockStart) >= blockLen {
			r.slot()
			r.openBlock()
		}
		runOp(r.c, &r.rec, <-ops)
	}
	r.slot()
	close(stop)
	<-done
}

// runE2E measures one workload end to end and returns its metrics.
func runE2E(cfg config, w workload) (*result, error) {
	if err := w.prepare(cfg.seed); err != nil {
		return nil, err
	}
	r := &e2eRun{cfg: cfg, w: w, meta: map[string]any{}}
	defer r.stop()

	// Set up several times on fresh servers; the last one is measured.
	// The kernel runs before and after each set-up, on the idle machine.
	kernel() // pages in the kernel's table
	var setups, rawSetups []float64
	for k := 0; k < cfg.setupRuns; k++ {
		r.stop()
		r.dataDir = filepath.Join(cfg.workDir, fmt.Sprintf("data%d", k))
		k0 := kernel()
		t0 := time.Now()
		if err := r.start(); err != nil {
			return nil, err
		}
		if err := r.setup(); err != nil {
			return nil, err
		}
		s := time.Since(t0).Seconds()
		rawSetups = append(rawSetups, s)
		setups = append(setups, s*kernelRefMs/((k0+kernel())/2))
	}

	before, err := metricsOf(r.c)
	if err != nil {
		return nil, err
	}
	cpu0, err := r.srv.cpuTime()
	if err != nil {
		return nil, err
	}
	steal0, ticks0, err := hostTicks()
	if err != nil {
		return nil, err
	}
	if d, ok := w.(windowRunner); ok {
		d.drive(r, cfg.window)
	} else {
		r.closedLoop(cfg.window)
	}
	cpu1, err := r.srv.cpuTime()
	if err != nil {
		return nil, err
	}
	steal1, ticks1, err := hostTicks()
	if err != nil {
		return nil, err
	}
	rss, err := r.srv.peakRSS()
	if err != nil {
		return nil, err
	}
	after, err := metricsOf(r.c)
	if err != nil {
		return nil, err
	}
	if a, ok := w.(afterChecker); ok {
		if err := a.afterWindow(r); err != nil {
			r.rec.problem("after the window: " + err.Error())
		}
	}

	rec := &r.rec
	for i, b := range rec.blocks {
		b.kernelMs = (r.kernels[i] + r.kernels[i+1]) / 2
	}
	sc := scaled(rec.blocks)
	res := newResult(rec)
	p90, p90ok := sc.primary.percentile(90)
	res.set("setup_s", median(setups), "s")
	res.set("ops_per_s", float64(sc.ok)/sc.dur.Seconds(), "1/s")
	res.set("mean_ms", sc.primary.mean(), "ms")
	res.set("p90_ms", p90, "ms")
	res.set("side_mean_ms", sc.side.mean(), "ms")
	res.set("rss_peak_mb", rss, "MiB")

	unresolved := []string{}
	if !p90ok {
		unresolved = append(unresolved, "p90_ms")
	}
	var wall time.Duration
	for _, b := range rec.blocks {
		wall += b.dur
	}
	rawP90, _ := rec.primary.percentile(90)
	r.meta["unscaled"] = map[string]float64{
		"setup_s":              median(rawSetups),
		"ops_per_s":            float64(sc.ok) / wall.Seconds(),
		"mean_ms":              rec.primary.mean(),
		"p90_ms":               finiteOr(rawP90),
		"side_mean_ms":         rec.side.mean(),
		"server_cpu_ms_per_op": float64(cpu1-cpu0) / float64(time.Millisecond) / float64(max(sc.ok, 1)),
	}
	r.meta["kernel_ms"] = r.kernels
	r.meta["p50_ms"] = map[string]float64{"primary": sc.primary.value(50), "side": sc.side.value(50)}
	r.meta["setup_samples_s"] = setups
	r.meta["window_s"] = cfg.window.Seconds()
	r.meta["host_steal_share"] = ratio(steal1-steal0, ticks1-ticks0)
	r.meta["samples"] = map[string]int{"primary": rec.primary.n(), "side": rec.side.n(), "ops": rec.attempted}
	r.meta["unresolved"] = unresolved
	r.meta["server_metrics_delta"] = metricsDelta(before, after, serverCounters)
	res.meta = r.meta
	return res, nil
}

// scaled merges the window's blocks into one whose times are scaled by
// each block's kernel speed.
func scaled(blocks []*block) block {
	var s block
	for _, b := range blocks {
		f := kernelRefMs / b.kernelMs
		s.primary.addScaled(&b.primary, f)
		s.side.addScaled(&b.side, f)
		s.ok += b.ok
		s.dur += time.Duration(float64(b.dur) * f)
	}
	return s
}

// serverCounters are the /metrics counters reported around a window.
var serverCounters = []string{
	"admitted_heavy", "admitted_light", "shed_heavy", "shed_light",
	"subs_events", "subs_dropped", "fact_batches", "db_evictions",
	"kb_evictions", "plan_hits", "plan_misses", "compile_misses",
	"join_round_plans", "join_hash_tables", "join_probe_steps",
}

// metricsOf scrapes the server's flat /metrics counters.
func metricsOf(s sender) (map[string]int64, error) {
	rq := request{method: http.MethodGet, path: "/metrics", kind: "metrics"}
	status, body, err := s.send(rq)
	if err := verdict(rq, status, body, err); err != nil {
		return nil, err
	}
	var m map[string]int64
	return m, json.Unmarshal(body, &m)
}

func metricsDelta(before, after map[string]int64, keys []string) map[string]int64 {
	out := make(map[string]int64, len(keys))
	for _, k := range keys {
		out[k] = after[k] - before[k]
	}
	return out
}
