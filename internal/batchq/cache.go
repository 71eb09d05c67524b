package batchq

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// Cache is a concurrency-safe LRU cache with hit/miss/eviction counters —
// the one LRU of the repository. It is the persistent spec-hash-keyed
// result store in front of the batch queue, and under GetOrPut the store
// behind the experiment suite's once-per-key memos.
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

// NewCache builds an LRU cache holding at most limit entries. A limit
// below 1 is a programming error and panics.
func NewCache[V any](limit int) *Cache[V] {
	if limit < 1 {
		panic(fmt.Sprintf("batchq: cache limit %d, want at least 1", limit))
	}
	return &Cache[V]{limit: limit, ll: list.New(), entries: make(map[string]*list.Element)}
}

// Get returns the cached value for key, refreshing its recency.
func (c *Cache[V]) Get(key string) (V, bool) {
	var zero V
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
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.insert(key, val)
}

// insert adds a new key as the most recently used entry and evicts from
// the cold end past the limit. c.mu must be held.
func (c *Cache[V]) insert(key string, val V) {
	c.entries[key] = c.ll.PushFront(&cacheEntry[V]{key: key, val: val})
	for c.ll.Len() > c.limit {
		back := c.ll.Back()
		delete(c.entries, back.Value.(*cacheEntry[V]).key)
		c.ll.Remove(back)
		c.evictions.Add(1)
	}
}

// GetOrPut returns the value cached under key, refreshing its recency
// (loaded = true); on a miss it stores val under key, evicting past the
// limit, and returns it (loaded = false). The lookup and the insert are
// one atomic step, so concurrent callers for one key all get the value
// the first of them stored.
func (c *Cache[V]) GetOrPut(key string, val V) (actual V, loaded bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*cacheEntry[V]).val, true
	}
	c.misses.Add(1)
	c.insert(key, val)
	return val, false
}

// Clear drops every entry; the lifetime counters keep their values.
func (c *Cache[V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.entries)
}

// Len returns the current entry count.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns the lifetime hit, miss and eviction counters.
func (c *Cache[V]) Stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}
