package batchq

import "testing"

func TestCacheGetPut(t *testing.T) {
	c := NewCache[string](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put("a", "A")
	c.Put("b", "B")
	if v, ok := c.Get("a"); !ok || v != "A" {
		t.Fatalf("Get(a) = (%q, %v), want (A, true)", v, ok)
	}
	hits, misses, evictions := c.Stats()
	if hits != 1 || misses != 1 || evictions != 0 {
		t.Errorf("stats = (%d, %d, %d), want (1, 1, 0)", hits, misses, evictions)
	}
}

// TestCacheEvictsLRU pins recency semantics: a Get refreshes an entry so
// the eviction victim is the least-recently-USED key, not the oldest.
func TestCacheEvictsLRU(t *testing.T) {
	c := NewCache[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a") // a is now more recent than b
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction although it was least recently used")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("a was evicted although it was recently used (got %d, %v)", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Errorf("c missing (got %d, %v)", v, ok)
	}
	if _, _, evictions := c.Stats(); evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestCachePutRefreshesExisting(t *testing.T) {
	c := NewCache[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh: a becomes MRU with the new value
	c.Put("c", 3)  // evicts b
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Errorf("Get(a) = (%d, %v), want (10, true)", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived although a's refresh made it the LRU entry")
	}
}

// TestCachePeek: Peek neither counts nor refreshes recency.
func TestCachePeek(t *testing.T) {
	c := NewCache[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Errorf("Peek(a) = (%d, %v), want (1, true)", v, ok)
	}
	if _, ok := c.Peek("z"); ok {
		t.Error("Peek(z) hit")
	}
	c.Put("c", 3) // a stays the LRU entry, so it is evicted
	if _, ok := c.Peek("a"); ok {
		t.Error("Peek refreshed a's recency")
	}
	if hits, misses, _ := c.Stats(); hits != 0 || misses != 0 {
		t.Errorf("Peek counted %d hits and %d misses", hits, misses)
	}
}

// TestNewCacheRejectsNoRoom: a cache with room for nothing is a
// programming error, not a mode.
func TestNewCacheRejectsNoRoom(t *testing.T) {
	for _, limit := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%d) did not panic", limit)
				}
			}()
			NewCache[int](limit)
		}()
	}
}

// TestCacheGetOrPut: a miss stores the offered value, a hit returns the
// stored one and refreshes its recency, and both are counted.
func TestCacheGetOrPut(t *testing.T) {
	c := NewCache[int](2)
	if v, loaded := c.GetOrPut("a", 1); v != 1 || loaded {
		t.Errorf("GetOrPut(a, 1) on a miss = (%d, %v), want (1, false)", v, loaded)
	}
	if v, loaded := c.GetOrPut("a", 2); v != 1 || !loaded {
		t.Errorf("GetOrPut(a, 2) on a hit = (%d, %v), want (1, true)", v, loaded)
	}
	c.Put("b", 3)
	c.GetOrPut("a", 0) // a is now more recent than b
	c.GetOrPut("c", 4) // evicts b
	if _, ok := c.Peek("b"); ok {
		t.Error("b survived although GetOrPut refreshed a past it")
	}
	if hits, misses, evictions := c.Stats(); hits != 2 || misses != 2 || evictions != 1 {
		t.Errorf("stats = (%d, %d, %d), want (2, 2, 1)", hits, misses, evictions)
	}
	c.Clear()
	if c.Len() != 0 {
		t.Errorf("Len after Clear = %d, want 0", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Error("Clear kept a")
	}
}
