// Package lru provides a minimal least-recently-used cache keyed by
// strings. It is not safe for concurrent use; callers hold their own
// lock.
package lru

import "container/list"

// Cache maps string keys to values, evicting the least recently used
// entry beyond its capacity.
type Cache[V any] struct {
	capacity int
	ll       *list.List
	items    map[string]*list.Element

	// OnEvict, when set, is called for every entry Add evicts, before
	// Add returns — synchronously, under whatever lock the caller holds.
	// Values owning external resources (open files, streams) use it to
	// guarantee teardown on every eviction path; a hook that must take
	// other locks should defer the real work (the victim is also
	// returned by Add for exactly that).
	OnEvict func(key string, value V)
}

type entry[V any] struct {
	key string
	val V
}

// New builds an empty cache holding at most capacity entries (minimum 1).
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Get returns the value under key and marks it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Add inserts (or refreshes) the value under key and returns the entry
// evicted to stay within capacity, if any — key and value both, so
// callers owning stateful values (open streams, subscriber lists) can
// tear the victim down instead of leaking it as an orphan.
func (c *Cache[V]) Add(key string, v V) (evictedKey string, evictedVal V, evicted bool) {
	var zero V
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entry[V]).val = v
		return "", zero, false
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: v})
	if c.ll.Len() <= c.capacity {
		return "", zero, false
	}
	oldest := c.ll.Back()
	c.ll.Remove(oldest)
	ent := oldest.Value.(*entry[V])
	delete(c.items, ent.key)
	if c.OnEvict != nil {
		c.OnEvict(ent.key, ent.val)
	}
	return ent.key, ent.val, true
}

// Remove drops the entry under key, returning its value. Removal is
// explicit, not an eviction: OnEvict is not called.
func (c *Cache[V]) Remove(key string) (V, bool) {
	if el, ok := c.items[key]; ok {
		c.ll.Remove(el)
		delete(c.items, key)
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Peek returns the value under key without touching recency.
func (c *Cache[V]) Peek(key string) (V, bool) {
	if el, ok := c.items[key]; ok {
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Len is the number of cached entries.
func (c *Cache[V]) Len() int { return c.ll.Len() }

// Keys lists the cached keys, most recently used first.
func (c *Cache[V]) Keys() []string {
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry[V]).key)
	}
	return out
}
