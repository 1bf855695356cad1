// Command loadgen replays mixed workloads against a rulekit serve
// instance — compile-miss storms, hot plan-hit repeats, large CQ
// fan-out, fact mutation batches against a live-subscribed DB — with
// optional fault injection (budget fail_at, injected engine/handler
// panics, slow-loris connections, malformed payloads, mid-request
// disconnects), while verifying the serving invariants:
//
//   - the process never dies (healthz stays 200 throughout),
//   - no goroutine leak (the goroutines gauge returns to baseline),
//   - truncated answers are sound subsets of the full fixpoint,
//   - a subscriber's snapshot plus accumulated SSE deltas equals an
//     exact recompute after the level's mutation batches settle,
//   - /metrics counters are monotone (gauges whitelisted),
//   - every 429 carries Retry-After.
//
// It sweeps client concurrency levels and prints a JSON report of the
// per-workload operation, error and shed counts and the violations.
// With no -addr it boots an in-process server (chaos enabled) and tears
// it down afterwards. Serving performance is measured by servebench, not
// here.
//
// Usage:
//
//	loadgen [-addr http://host:port] [-duration 30s] [-levels 1,2,4,8]
//	        [-chaos] [-seed 1]
//
// Exit status is non-zero when any invariant was violated.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

func main() {
	addr := flag.String("addr", "", "target base URL (empty: boot an in-process server with chaos enabled)")
	duration := flag.Duration("duration", 30*time.Second, "total run time, split across concurrency levels")
	levels := flag.String("levels", "1,2,4,8", "comma-separated client concurrency sweep")
	chaos := flag.Bool("chaos", false, "inject faults (requires the target to run with -chaos; implied for in-process)")
	seed := flag.Int64("seed", 1, "workload RNG seed")
	flag.Parse()

	var lv []int
	for _, s := range strings.Split(*levels, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "loadgen: bad -levels entry %q\n", s)
			os.Exit(2)
		}
		lv = append(lv, n)
	}

	cfg := harnessConfig{
		Addr:     *addr,
		Duration: *duration,
		Levels:   lv,
		Chaos:    *chaos || *addr == "",
		Seed:     *seed,
	}
	report, err := runHarness(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(report.JSON()))
	if len(report.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d invariant violation(s)\n", len(report.Violations))
		os.Exit(1)
	}
}
