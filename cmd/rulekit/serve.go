package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"guardedrules/internal/kbcache"
	"guardedrules/internal/server"
)

// serveOptions is the parsed flag set of one serve invocation, split
// out so tests can drive the full boot/drain lifecycle in-process.
type serveOptions struct {
	cfg               server.Config
	addr              string
	lameDuck          time.Duration
	drainTimeout      time.Duration
	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	idleTimeout       time.Duration
}

// cmdServe boots the compiled-KB HTTP server: register theories once,
// load fact databases, answer queries against the cached artifacts.
// SIGINT/SIGTERM drain gracefully: /readyz flips to 503 immediately so
// load balancers stop routing, in-flight requests finish (up to
// -drain-timeout), then the process exits 0.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address (port 0 picks a free port)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request engine budget (0 = request context only)")
	maxFacts := fs.Int("max-facts", 1_000_000, "per-request derived-fact ceiling for uncertified theories (0 = none; certified theories run budget-free)")
	maxKBs := fs.Int("max-kbs", 32, "compiled-KB cache capacity")
	maxPlans := fs.Int("max-plans", 64, "query-plan cache capacity per KB")
	maxDBs := fs.Int("max-dbs", 32, "loaded-database cache capacity")
	compileTimeout := fs.Duration("compile-timeout", 30*time.Second, "per-compilation budget (translations included)")
	heavyLimit := fs.Int("heavy-limit", 0, "concurrent compile/cold-plan/chase requests (0 = default 4)")
	heavyQueue := fs.Int("heavy-queue", 0, "heavy admission queue depth (0 = 2x limit)")
	lightLimit := fs.Int("light-limit", 0, "concurrent plan-hit requests (0 = default 64)")
	lightQueue := fs.Int("light-queue", 0, "light admission queue depth (0 = 2x limit)")
	queueWait := fs.Duration("queue-wait", time.Second, "max time a request waits for an admission slot before 429")
	maxBody := fs.Int64("max-body-bytes", 4<<20, "POST body size cap (413 beyond it)")
	maxSubs := fs.Int("max-subs", 64, "concurrent live-query subscriptions (429 beyond it)")
	dataDir := fs.String("data-dir", "", "persistence root: fact DBs journal to segment stores and theories persist compiled artifacts; reopened at boot (empty = in-memory)")
	syncWrites := fs.Bool("sync", false, "fsync every durable commit (power-loss safety at a per-batch fsync cost)")
	lameDuck := fs.Duration("lame-duck", time.Second, "after SIGTERM, keep serving (readyz 503) this long so load balancers stop routing")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "grace period for in-flight requests on shutdown")
	readHeaderTimeout := fs.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slow-loris guard)")
	readTimeout := fs.Duration("read-timeout", 60*time.Second, "http.Server ReadTimeout (whole-request read ceiling)")
	idleTimeout := fs.Duration("idle-timeout", 120*time.Second, "http.Server IdleTimeout (keep-alive reaping)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("serve: unexpected arguments %v", fs.Args())
	}

	opts := serveOptions{
		cfg: server.Config{
			Store: kbcache.Config{
				MaxKBs:         *maxKBs,
				MaxPlansPerKB:  *maxPlans,
				CompileTimeout: *compileTimeout,
			},
			MaxDBs:         *maxDBs,
			DefaultTimeout: *timeout,
			MaxFacts:       *maxFacts,
			HeavyLimit:     *heavyLimit,
			HeavyQueue:     *heavyQueue,
			LightLimit:     *lightLimit,
			LightQueue:     *lightQueue,
			MaxQueueWait:   *queueWait,
			MaxBodyBytes:   *maxBody,
			MaxSubs:        *maxSubs,
			DataDir:        *dataDir,
			SyncWrites:     *syncWrites,
		},
		addr:              *addr,
		lameDuck:          *lameDuck,
		drainTimeout:      *drainTimeout,
		readHeaderTimeout: *readHeaderTimeout,
		readTimeout:       *readTimeout,
		idleTimeout:       *idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runServe(ctx, opts, os.Stdout, os.Stderr)
}

// runServe is the testable core of cmdServe: it serves until ctx is
// canceled (the signal), then drains — readiness flips first, in-flight
// requests get drainTimeout to finish — and returns nil on a clean
// drain so the process exits 0.
func runServe(ctx context.Context, opts serveOptions, stdout, stderr io.Writer) error {
	srv := server.New(opts.cfg)
	if err := srv.RestoreData(); err != nil {
		return fmt.Errorf("serve: restore data dir: %w", err)
	}
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "listening on http://%s\n", ln.Addr())

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: opts.readHeaderTimeout,
		ReadTimeout:       opts.readTimeout,
		IdleTimeout:       opts.idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		fmt.Fprintln(stderr, "serve: draining (readiness down, finishing in-flight requests)")
		srv.BeginDrain()
		// Lame-duck window: readiness is already 503, but the listener
		// stays open so load balancers health-checking /readyz observe
		// the flip and stop routing before connections start refusing.
		if opts.lameDuck > 0 {
			select {
			case <-time.After(opts.lameDuck):
			case err := <-errCh:
				return err
			}
		}
		shctx, cancel := context.WithTimeout(context.Background(), opts.drainTimeout)
		defer cancel()
		if err := hs.Shutdown(shctx); err != nil {
			return fmt.Errorf("serve: drain incomplete: %w", err)
		}
		if err := srv.CloseData(); err != nil {
			return fmt.Errorf("serve: closing data dir: %w", err)
		}
		fmt.Fprintln(stderr, "serve: drained")
		return nil
	case err := <-errCh:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	}
}
