package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported as resolved: a p90 over 50 samples rests on 5 values and
// moves with every stray GC pause.
const minBeyond = 10

// latencies collects one request class's samples in milliseconds.
// Failed or shed requests have no meaningful latency; they count as
// slower than every percentile.
type latencies struct {
	ms     []float64
	failed int
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d)/float64(time.Millisecond)) }

func (l *latencies) fail() { l.failed++ }

// addScaled adds o's samples, each multiplied by f, and its failures.
func (l *latencies) addScaled(o *latencies, f float64) {
	for _, ms := range o.ms {
		l.ms = append(l.ms, ms*f)
	}
	l.failed += o.failed
}

func (l *latencies) n() int { return len(l.ms) + l.failed }

// percentile returns the nearest-rank p-th percentile (0 < p < 100) and
// whether at least minBeyond samples lie beyond it. Failures sit above
// every measured sample, so a percentile that lands on one is +Inf.
func (l *latencies) percentile(p float64) (value float64, resolved bool) {
	n := l.n()
	if n == 0 {
		return math.Inf(1), false
	}
	sorted := append([]float64(nil), l.ms...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	resolved = n-rank >= minBeyond
	if rank > len(sorted) {
		return math.Inf(1), resolved
	}
	return sorted[rank-1], resolved
}

// mean is the mean of the measured samples; -1 without any.
func (l *latencies) mean() float64 {
	if len(l.ms) == 0 {
		return -1
	}
	var sum float64
	for _, v := range l.ms {
		sum += v
	}
	return sum / float64(len(l.ms))
}

// value is a percentile as reported: -1 when it lands on a failure,
// which no measured latency can be.
func (l *latencies) value(p float64) float64 {
	v, _ := l.percentile(p)
	return finiteOr(v)
}

func finiteOr(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return v
}

// recorder is the thread-safe sample sink of one measured window.
type recorder struct {
	mu        sync.Mutex
	primary   latencies
	side      latencies
	kinds     map[string]*latencies // every request by op type
	attempted int
	failed    int
	problems  []string
	blocks    []*block // end-to-end windows only; samples go to the last
}

// block is the stretch of a window between two kernel slots.
type block struct {
	primary, side latencies
	ok            int           // successful ops
	dur           time.Duration // wall time
	kernelMs      float64       // mean kernel time of the slots at its two ends
}

// openBlock starts a new block; samples and ops count towards it.
func (r *recorder) openBlock() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.blocks = append(r.blocks, &block{})
}

func (r *recorder) current() *block {
	if len(r.blocks) == 0 {
		return nil
	}
	return r.blocks[len(r.blocks)-1]
}

// class says which end-to-end latency a request feeds.
type class int

const (
	classNone class = iota
	classPrimary
	classSide
)

func (r *recorder) sample(rq request, d time.Duration, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.kinds == nil {
		r.kinds = map[string]*latencies{}
	}
	if r.kinds[rq.kind] == nil {
		r.kinds[rq.kind] = &latencies{}
	}
	var inBlock *latencies
	if b := r.current(); b != nil {
		inBlock = b.classOf(rq.class)
	}
	for _, l := range []*latencies{r.classOf(rq.class), r.kinds[rq.kind], inBlock} {
		switch {
		case l == nil:
		case ok:
			l.add(d)
		default:
			l.fail()
		}
	}
}

func (r *recorder) classOf(c class) *latencies { return classOf(c, &r.primary, &r.side) }

func (b *block) classOf(c class) *latencies { return classOf(c, &b.primary, &b.side) }

func classOf(c class, primary, side *latencies) *latencies {
	switch c {
	case classPrimary:
		return primary
	case classSide:
		return side
	}
	return nil
}

// op counts one attempted op and whether it succeeded.
func (r *recorder) op(ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
	} else if b := r.current(); b != nil {
		b.ok++
	}
}

// problem records a correctness failure (kept bounded so a broken
// server cannot flood the report).
func (r *recorder) problem(msg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, msg)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
