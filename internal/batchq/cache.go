package batchq

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Cache is a concurrency-safe LRU result cache with hit/miss/eviction
// counters — the persistent spec-hash-keyed result store in front of the
// batch queue. A limit <= 0 disables it entirely (Get always misses
// without counting, Put is a no-op), which is how the unbatched baseline
// configuration turns caching off.
type Cache[V any] struct {
	limit int

	mu      sync.Mutex
	ll      *list.List // front = most recently used
	entries map[string]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheEntry[V any] struct {
	key string
	val V
}

// NewCache builds an LRU cache holding at most limit entries; limit <= 0
// disables caching.
func NewCache[V any](limit int) *Cache[V] {
	c := &Cache[V]{limit: limit}
	if limit > 0 {
		c.ll = list.New()
		c.entries = make(map[string]*list.Element)
	}
	return c
}

// Get returns the cached value for key, refreshing its recency.
func (c *Cache[V]) Get(key string) (V, bool) {
	var zero V
	if c.limit <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		return zero, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry[V]).val, true
}

// Peek returns the cached value for key without counting a hit or a miss
// and without refreshing its recency.
func (c *Cache[V]) Peek(key string) (V, bool) {
	var zero V
	if c.limit <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return zero, false
	}
	return el.Value.(*cacheEntry[V]).val, true
}

// Put stores a value under key, evicting the least-recently-used entries
// past the limit. Storing an existing key refreshes its value and
// recency.
func (c *Cache[V]) Put(key string, val V) {
	if c.limit <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry[V]{key: key, val: val})
	for c.ll.Len() > c.limit {
		back := c.ll.Back()
		delete(c.entries, back.Value.(*cacheEntry[V]).key)
		c.ll.Remove(back)
		c.evictions.Add(1)
	}
}

// Len returns the current entry count.
func (c *Cache[V]) Len() int {
	if c.limit <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns the lifetime hit, miss and eviction counters.
func (c *Cache[V]) Stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}
