package kbcache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"guardedrules/internal/lru"
)

// cache is the store's one caching policy, for compiled KBs and for
// each KB's query plans alike: an LRU of built values, and a flight
// that shares one build among the concurrent callers of a key. A build
// is canceled only when every caller waiting on it has gone, and a
// failed or canceled build is not cached, so the next caller rebuilds
// cleanly. The counters are the Metrics the cache moves.
type cache[V any] struct {
	mu     sync.Mutex
	lru    *lru.Cache[V]
	flight flight[V]

	hits      *atomic.Int64 // served from the LRU
	shared    *atomic.Int64 // served by a concurrent caller's build
	evictions *atomic.Int64 // values the LRU dropped
}

func newCache[V any](capacity int, hits, shared, evictions *atomic.Int64) *cache[V] {
	return &cache[V]{lru: lru.New[V](capacity), hits: hits, shared: shared, evictions: evictions}
}

// intern returns the value under key, building and caching it on a
// miss; built counts the successful builds. ctx is this caller's
// interest in a build. cached reports whether the call reused a cached
// value or another caller's build instead of running its own.
func (c *cache[V]) intern(ctx context.Context, key string, built *atomic.Int64, build func(context.Context) (V, error)) (v V, cached bool, err error) {
	if v, ok := c.get(key); ok {
		c.hits.Add(1)
		return v, true, nil
	}
	v, shared, err := c.flight.Do(ctx, key, func(cctx context.Context) (V, error) {
		v, err := build(cctx)
		if err != nil {
			return v, err
		}
		built.Add(1)
		c.mu.Lock()
		_, _, evicted := c.lru.Add(key, v)
		c.mu.Unlock()
		if evicted {
			c.evictions.Add(1)
		}
		return v, nil
	})
	if shared && err == nil {
		c.shared.Add(1)
	}
	return v, shared, err
}

// get returns the value under key, marking it most recently used.
func (c *cache[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Get(key)
}

// peek returns the value under key and leaves the LRU order as it is.
func (c *cache[V]) peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Peek(key)
}

func (c *cache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// keys lists the cached keys, most recently used first.
func (c *cache[V]) keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Keys()
}

// flight deduplicates concurrent function calls by key: while one
// goroutine runs fn for a key, others calling Do with the same key block
// and share its result instead of running fn again.
//
// The flight is context-aware so a disconnecting client can abandon an
// expensive compile without poisoning everyone else sharing it:
//
//   - fn runs under a call context that stays alive while ANY waiter is
//     still interested; it is canceled only when the last waiter's own
//     context dies. One disconnecting client (even the leader's) never
//     cancels work that other clients are still waiting for.
//   - A waiter whose own context dies stops waiting immediately and gets
//     its ctx error; the in-flight call keeps running for the others.
//   - If the call does die of cancellation (all waiters gone) while a
//     new waiter raced in, that waiter observes the cancellation, sees
//     its own context still alive, and retries as the new leader — a
//     canceled leader never poisons followers.
type flight[V any] struct {
	mu sync.Mutex
	m  map[string]*flightCall[V]
}

type flightCall[V any] struct {
	done   chan struct{}
	cancel context.CancelFunc
	refs   int // waiters still interested; last one out cancels fn's ctx
	val    V
	err    error
}

// Do runs fn under the key, deduplicating concurrent duplicates. shared
// reports whether the result came from another goroutine's in-flight
// run. ctx is the caller's interest: when it dies the caller stops
// waiting (and, if it was the last one interested, the running fn's
// context is canceled). A nil ctx means context.Background().
func (g *flight[V]) Do(ctx context.Context, key string, fn func(ctx context.Context) (V, error)) (v V, shared bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		g.mu.Lock()
		if g.m == nil {
			g.m = make(map[string]*flightCall[V])
		}
		if c, ok := g.m[key]; ok {
			c.refs++
			g.mu.Unlock()
			select {
			case <-c.done:
				g.drop(key, c)
				// A call that died of cancellation is not a result, it is
				// the absence of one: if this waiter still wants the value,
				// it becomes the new leader instead of inheriting the
				// corpse's error.
				if c.err != nil && errors.Is(c.err, context.Canceled) && ctx.Err() == nil {
					continue
				}
				return c.val, true, c.err
			case <-ctx.Done():
				g.drop(key, c)
				return v, true, ctx.Err()
			}
		}
		callCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		c := &flightCall[V]{done: make(chan struct{}), cancel: cancel, refs: 1}
		g.m[key] = c
		g.mu.Unlock()

		// The leader's own disconnect must count like any waiter's: watch
		// it on the side while fn runs. The watcher exits on done, so it
		// cannot leak past the call.
		stop := make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				g.drop(key, c)
			case <-stop:
			}
		}()
		c.val, c.err = fn(callCtx)
		close(stop)
		close(c.done)

		g.mu.Lock()
		if g.m[key] == c {
			delete(g.m, key)
		}
		g.mu.Unlock()
		cancel()
		return c.val, false, c.err
	}
}

// drop records that one waiter lost interest in the call; the last
// departure cancels the running fn's context. The key is detached from
// the map at the same moment so late arrivals start a fresh call instead
// of joining a doomed one.
func (g *flight[V]) drop(key string, c *flightCall[V]) {
	g.mu.Lock()
	c.refs--
	if c.refs <= 0 {
		select {
		case <-c.done:
			// fn already finished; nothing to cancel.
		default:
			if g.m[key] == c {
				delete(g.m, key)
			}
			c.cancel()
		}
	}
	g.mu.Unlock()
}
