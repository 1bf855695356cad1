package main

import (
	"math"
	"testing"
	"time"
)

func samples(ms ...int) *latencies {
	l := &latencies{}
	for _, v := range ms {
		l.add(time.Duration(v) * time.Millisecond)
	}
	return l
}

// A block measured while the kernel ran at half speed must read like the
// same work measured at reference speed.
func TestScaledBlocks(t *testing.T) {
	fast := &block{primary: *samples(20, 30), ok: 10, dur: time.Second, kernelMs: kernelRefMs}
	slow := &block{primary: *samples(40, 60), ok: 10, dur: 2 * time.Second, kernelMs: 2 * kernelRefMs}
	slow.primary.fail()
	s := scaled([]*block{fast, slow})
	if got := s.primary.mean(); got != 25 {
		t.Errorf("scaled mean = %v, want 25", got)
	}
	if s.ok != 20 || s.dur != 2*time.Second || s.primary.failed != 1 {
		t.Errorf("scaled block: %d ok in %v, %d failed; want 20 in 2s, 1 failed", s.ok, s.dur, s.primary.failed)
	}
}

func TestPercentileUnresolvedRule(t *testing.T) {
	var hundred []int
	for v := 1; v <= 100; v++ {
		hundred = append(hundred, v)
	}
	l := samples(hundred...)
	for _, c := range []struct {
		p        float64
		want     float64
		resolved bool
	}{
		{50, 50, true},
		{90, 90, true},  // exactly 10 samples beyond
		{95, 95, false}, // only 5 beyond
		{99, 99, false},
	} {
		got, resolved := l.percentile(c.p)
		if got != c.want || resolved != c.resolved {
			t.Errorf("p%v of 1..100 = %v (resolved %v), want %v (resolved %v)", c.p, got, resolved, c.want, c.resolved)
		}
	}

	// Failures rank above every measured sample.
	l = samples(hundred[:95]...)
	for i := 0; i < 5; i++ {
		l.fail()
	}
	if got, _ := l.percentile(95); got != 95 {
		t.Errorf("p95 with 5 failures on top = %v, want the last sample, 95", got)
	}
	if got, _ := l.percentile(96); !math.IsInf(got, 1) {
		t.Errorf("p96 landing on a failure = %v, want +Inf", got)
	}
	if got := l.value(96); got != -1 {
		t.Errorf("reported p96 landing on a failure = %v, want -1", got)
	}

	if got, resolved := (&latencies{}).percentile(50); !math.IsInf(got, 1) || resolved {
		t.Errorf("p50 of no samples = %v (resolved %v), want +Inf, unresolved", got, resolved)
	}
}
