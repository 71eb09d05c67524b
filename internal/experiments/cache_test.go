package experiments

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
)

// TestMemoComputesOncePerKey: concurrent callers of one key share one
// computation, errors are memoized like values, and clearing the LRU
// drops every entry.
func TestMemoComputesOncePerKey(t *testing.T) {
	m := newMemo[int](4)
	var calls atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Do("k", func() (int, error) {
				calls.Add(1)
				return 42, nil
			})
			if v != 42 || err != nil {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", calls.Load())
	}
	if _, err := m.Do("fail", func() (int, error) { return 0, errors.New("x") }); err == nil {
		t.Errorf("error not propagated")
	}
	// Errors are memoized too (deterministic inputs): the failure sticks.
	if _, err := m.Do("fail", func() (int, error) { return 1, nil }); err == nil {
		t.Errorf("memoized error was recomputed")
	}
	m.lru.Clear()
	if v, _ := m.Do("fail", func() (int, error) { return 7, nil }); v != 7 {
		t.Errorf("clear did not drop entries")
	}
}

// TestMemoEvictsLRU: past the cap the new key is stored and the
// least-recently-used entry is evicted and recomputed on its next access.
func TestMemoEvictsLRU(t *testing.T) {
	m := newMemo[int](2)
	calls := 0
	get := func(key string) int {
		t.Helper()
		v, err := m.Do(key, func() (int, error) { calls++; return calls, nil })
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	evictions := func() int64 { _, _, e := m.lru.Stats(); return e }
	// Under the cap: classic memoization.
	if get("a") != 1 || get("a") != 1 || get("b") != 2 {
		t.Fatalf("memoization under the cap broke (calls=%d)", calls)
	}
	// Past the cap: the new key IS stored and the LRU entry ("a") is
	// evicted — a stop-caching-at-cap policy would leave every later key
	// permanently uncached.
	if get("c") != 3 || get("c") != 3 {
		t.Errorf("over-cap key was not cached (calls=%d)", calls)
	}
	if evictions() != 1 {
		t.Errorf("evictions = %d, want 1", evictions())
	}
	// "b" was refreshed more recently than "a", so it survived.
	if get("b") != 2 {
		t.Errorf("recently-used entry was evicted")
	}
	// "a" was the eviction victim: recomputed on next access.
	if get("a") != 4 {
		t.Errorf("evicted entry was not recomputed (calls=%d)", calls)
	}
	if m.lru.Len() != 2 {
		t.Errorf("Len = %d, want the cap 2", m.lru.Len())
	}
}

// TestMemoHotKeySurvivesColdScan is the LRU regression gate: a key that is
// re-touched while a stream of unique cold keys floods past the cap keeps
// hitting its cached value the whole way through.
func TestMemoHotKeySurvivesColdScan(t *testing.T) {
	const limit = 8
	m := newMemo[int](limit)
	hotCalls := 0
	hot := func() (int, error) { hotCalls++; return 99, nil }
	if v, _ := m.Do("hot", hot); v != 99 {
		t.Fatalf("hot = %d", v)
	}
	for i := 0; i < 4*limit; i++ {
		key := "cold-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if _, err := m.Do(key, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
		// Touch the hot key every few cold inserts, as a busy service would.
		if i%3 == 0 {
			if v, _ := m.Do("hot", hot); v != 99 {
				t.Fatalf("hot key lost its value at cold insert %d", i)
			}
		}
	}
	if hotCalls != 1 {
		t.Errorf("hot key recomputed %d times during the cold scan, want 1", hotCalls)
	}
	if _, _, e := m.lru.Stats(); e == 0 {
		t.Errorf("cold scan past the cap evicted nothing")
	}
}

// TestMemoEvictedWhileComputing: an entry evicted while its computation
// runs still serves every caller already attached to it; only a lookup
// after the eviction recomputes.
func TestMemoEvictedWhileComputing(t *testing.T) {
	m := newMemo[int](1)
	started, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	slow := func() (int, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-release
		}
		return 7, nil
	}
	results := make(chan int, 2)
	go func() { v, _ := m.Do("k", slow); results <- v }()
	<-started
	// A second caller attaches to the running computation: its lookup is
	// the memo's first hit.
	go func() { v, _ := m.Do("k", slow); results <- v }()
	for {
		if hits, _, _ := m.lru.Stats(); hits == 1 {
			break
		}
		runtime.Gosched()
	}
	// Evict "k" while it is still computing.
	if v, _ := m.Do("other", func() (int, error) { return 1, nil }); v != 1 {
		t.Fatalf("other = %d", v)
	}
	if _, ok := m.lru.Peek("k"); ok {
		t.Fatal("k was not evicted")
	}
	close(release)
	for i := 0; i < 2; i++ {
		if v := <-results; v != 7 {
			t.Errorf("attached caller got %d, want 7", v)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("attached callers ran %d computations, want 1", calls.Load())
	}
	// A lookup after the eviction recomputes.
	if v, _ := m.Do("k", slow); v != 7 || calls.Load() != 2 {
		t.Errorf("post-eviction lookup = %d after %d computations, want 7 after 2", v, calls.Load())
	}
}

// TestEvalSpecSharedAcrossNames proves the spec-hash keying: two
// differently-named compilations of the same layer table share one cache
// entry and produce identical ledgers.
func TestEvalSpecSharedAcrossNames(t *testing.T) {
	spec := func(name string) *model.Spec {
		return &model.Spec{
			Name:  name,
			Input: model.Dims{C: 1, H: 12, W: 12},
			Layers: []model.LayerSpec{
				{Name: "c1", Kind: "conv", Filters: 4, Kernel: 3, Pad: 1},
				{Name: "out", Kind: "fc", Units: 3},
			},
		}
	}
	a, err := spec("net-a").Compile()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec("net-b").Compile()
	if err != nil {
		t.Fatal(err)
	}
	if a.SpecHash() != b.SpecHash() {
		t.Fatalf("renamed identical networks hash differently")
	}
	ra, err := EvalSpec("timely", 8, 1, a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := EvalSpec("timely", 8, 1, b)
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Errorf("identical networks did not share one cache entry")
	}
	if _, err := EvalSpec("abacus", 8, 1, a); err == nil {
		t.Errorf("unknown backend accepted")
	}
}
