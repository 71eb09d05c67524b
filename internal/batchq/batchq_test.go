package batchq

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recorder is a Run that models timelyd's executor: it takes the slot
// (when the test gave it one), then seals its group, returns each request
// back as its value — or the group context's error once every waiter has
// left — and records every group, so tests can assert exactly how
// requests were grouped.
type recorder struct {
	slot   chan struct{} // nil: an idle server, the slot is always free
	mu     sync.Mutex
	groups [][]int
	runs   atomic.Int64
}

// held returns a recorder whose one slot the test already holds; the
// groups it opens wait until the test calls release.
func held() *recorder {
	r := &recorder{slot: make(chan struct{}, 1)}
	r.slot <- struct{}{}
	return r
}

func (r *recorder) release() { <-r.slot }

func (r *recorder) run(ctx context.Context, seal func() []int) ([]int, []error) {
	if r.slot != nil {
		r.slot <- struct{}{}
		defer r.release()
	}
	reqs := seal()
	r.runs.Add(1)
	r.mu.Lock()
	r.groups = append(r.groups, append([]int(nil), reqs...))
	r.mu.Unlock()
	if err := ctx.Err(); err != nil {
		errs := make([]error, len(reqs))
		for i := range errs {
			errs[i] = err
		}
		return nil, errs
	}
	out := make([]int, len(reqs))
	copy(out, reqs)
	return out, nil
}

// sizes returns the recorded group sizes, largest first.
func (r *recorder) sizes() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int
	for _, g := range r.groups {
		out = append(out, len(g))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// awaitBatched blocks until n requests have entered groups as distinct
// jobs, i.e. until they are all queued.
func awaitBatched(t *testing.T, q *Queue[int, int], n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, batched, _ := q.Stats()
		if batched >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests queued", batched, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// doAll runs one Do per key concurrently and returns once they are all
// queued; wait blocks until they have all returned.
func doAll(t *testing.T, q *Queue[int, int], keys []int) (wait func()) {
	t.Helper()
	_, before, _ := q.Stats()
	var wg sync.WaitGroup
	for _, k := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, o, err := q.Do(context.Background(), "k", fmt.Sprintf("k/%d", k), k)
			if err != nil || v != k || o != Computed {
				t.Errorf("Do(%d) = (%d, %v, %v)", k, v, o, err)
			}
		}()
	}
	awaitBatched(t, q, before+int64(len(keys)))
	return wg.Wait
}

// TestImmediateFireWithoutWindow pins the idle case: with the slot free,
// every request runs at once as its own group of one; nothing waits for
// company.
func TestImmediateFireWithoutWindow(t *testing.T) {
	rec := &recorder{}
	q := New(context.Background(), 32, rec.run)
	for i := 0; i < 3; i++ {
		v, o, err := q.Do(context.Background(), "k", fmt.Sprintf("k/%d", i), i)
		if err != nil || v != i || o != Computed {
			t.Fatalf("Do(%d) = (%d, %v, %v)", i, v, o, err)
		}
	}
	if got := rec.runs.Load(); got != 3 {
		t.Fatalf("runs = %d, want 3 (an idle queue never gathers)", got)
	}
	batches, batched, coalesced := q.Stats()
	if batches != 3 || batched != 3 || coalesced != 0 {
		t.Errorf("stats = (%d, %d, %d), want (3, 3, 0)", batches, batched, coalesced)
	}
}

// TestGatherWindowGroups pins the gathering: distinct seeds of one batch
// key that queue while the slot is held execute as ONE group once it
// frees.
func TestGatherWindowGroups(t *testing.T) {
	rec := held()
	q := New(context.Background(), 32, rec.run)
	const n = 4
	wait := doAll(t, q, []int{0, 1, 2, 3})
	rec.release()
	wait()
	if got := rec.runs.Load(); got != 1 {
		t.Fatalf("runs = %d, want 1 (all requests queued behind one slot)", got)
	}
	if got := rec.sizes(); got[0] != n {
		t.Fatalf("group size = %d, want %d", got[0], n)
	}
	if batches, _, _ := q.Stats(); batches != 1 {
		t.Errorf("batches = %d, want 1", batches)
	}
}

// TestMaxBatchFiresEarly pins the cap: a group holding maxBatch jobs
// stops gathering, and the next job of its batch key opens a new group.
func TestMaxBatchFiresEarly(t *testing.T) {
	rec := held()
	q := New(context.Background(), 2, rec.run)
	wait := doAll(t, q, []int{0, 1, 2})
	if batches, _, _ := q.Stats(); batches != 2 {
		t.Errorf("batches = %d with three jobs queued at cap 2, want 2", batches)
	}
	rec.release()
	wait()
	if got := rec.sizes(); fmt.Sprint(got) != "[2 1]" {
		t.Fatalf("group sizes = %v, want [2 1]", got)
	}
}

// TestSingleflightCoalesces hammers one job key from many goroutines and
// asserts exactly one computation with every waiter sharing its value.
func TestSingleflightCoalesces(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	q := New(context.Background(), 1, func(ctx context.Context, seal func() []int) ([]int, []error) {
		reqs := seal()
		runs.Add(1)
		<-release
		return []int{reqs[0] * 10}, nil
	})
	const n = 8
	var wg sync.WaitGroup
	var computed, coalesced atomic.Int64
	results := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, o, err := q.Do(context.Background(), "k", "k/seed", 7)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = v
			if o == Coalesced {
				coalesced.Add(1)
			} else {
				computed.Add(1)
			}
		}(i)
	}
	// Wait until every goroutine has either started the job or joined it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		q.mu.Lock()
		joined := false
		if j, ok := q.inflight["k/seed"]; ok {
			joined = j.g.waiters == n
		}
		q.mu.Unlock()
		if joined || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("computations = %d, want exactly 1", got)
	}
	for i, v := range results {
		if v != 70 {
			t.Errorf("waiter %d got %d, want 70", i, v)
		}
	}
	if computed.Load() != 1 || coalesced.Load() != n-1 {
		t.Errorf("outcomes = %d computed / %d coalesced, want 1 / %d",
			computed.Load(), coalesced.Load(), n-1)
	}
}

// TestCancelledWaiterDoesNotKillSurvivors is the 499 contract: a waiter
// whose context dies mid-flight gets its context error, while the shared
// computation completes for the surviving waiter.
func TestCancelledWaiterDoesNotKillSurvivors(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var sawCancel atomic.Bool
	q := New(context.Background(), 1, func(ctx context.Context, seal func() []int) ([]int, []error) {
		seal()
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
			sawCancel.Store(true)
		}
		return []int{42}, nil
	})

	survivor := make(chan error, 1)
	go func() {
		v, _, err := q.Do(context.Background(), "k", "k/seed", 1)
		if err == nil && v != 42 {
			err = fmt.Errorf("survivor got %d, want 42", v)
		}
		survivor <- err
	}()
	<-started

	// The second waiter joins the in-flight job, then its client vanishes.
	cctx, cancel := context.WithCancel(context.Background())
	joined := make(chan struct{})
	impatient := make(chan error, 1)
	go func() {
		close(joined)
		_, _, err := q.Do(cctx, "k", "k/seed", 1)
		impatient <- err
	}()
	<-joined
	// Give the joiner a moment to actually enter wait, then cut it loose.
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-impatient; !errors.Is(err, context.Canceled) {
		t.Fatalf("impatient waiter error = %v, want context.Canceled", err)
	}

	close(release)
	if err := <-survivor; err != nil {
		t.Fatalf("survivor: %v", err)
	}
	if sawCancel.Load() {
		t.Error("shared computation was cancelled although a waiter survived")
	}
}

// TestAllWaitersGoneCancelsGroup pins the flip side: when EVERY waiter
// departs, the group context is cancelled so the computation can stop.
func TestAllWaitersGoneCancelsGroup(t *testing.T) {
	cancelled := make(chan struct{})
	q := New(context.Background(), 1, func(ctx context.Context, seal func() []int) ([]int, []error) {
		seal()
		<-ctx.Done()
		close(cancelled)
		return nil, []error{ctx.Err()}
	})
	cctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := q.Do(cctx, "k", "k/seed", 1)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter error = %v, want context.Canceled", err)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("group context was not cancelled after the last waiter departed")
	}
}

// TestPerJobErrors pins that errors fan out per job, not per group.
func TestPerJobErrors(t *testing.T) {
	boom := errors.New("boom")
	q := New(context.Background(), 8,
		func(ctx context.Context, seal func() []int) ([]int, []error) {
			reqs := seal()
			vals := make([]int, len(reqs))
			errs := make([]error, len(reqs))
			for i, r := range reqs {
				if r%2 == 1 {
					errs[i] = boom
					continue
				}
				vals[i] = r * 10
			}
			return vals, errs
		})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := q.Do(context.Background(), "k", fmt.Sprintf("k/%d", i), i)
			if i%2 == 1 {
				if !errors.Is(err, boom) {
					t.Errorf("job %d error = %v, want boom", i, err)
				}
				return
			}
			if err != nil || v != i*10 {
				t.Errorf("job %d = (%d, %v), want (%d, nil)", i, v, err, i*10)
			}
		}(i)
	}
	wg.Wait()
}

// TestAbandonedGroupIsReplaced: a group whose every waiter left while it
// waited for the slot is cancelled; a later request with its batch key
// must open a fresh group rather than join the dead one and inherit its
// cancellation.
func TestAbandonedGroupIsReplaced(t *testing.T) {
	rec := held()
	q := New(context.Background(), 32, rec.run)
	cctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		_, _, err := q.Do(cctx, "k", "k/a", 1)
		gone <- err
	}()
	awaitBatched(t, q, 1)
	cancel()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("departed waiter error = %v, want context.Canceled", err)
	}

	// The abandoned group is still waiting for the slot, so it is still
	// the gathering group of "k".
	wait := doAll(t, q, []int{2})
	if batches, _, _ := q.Stats(); batches != 2 {
		t.Errorf("batches = %d, want 2 (a fresh group for the live request)", batches)
	}
	rec.release()
	wait()
	if got := rec.sizes(); fmt.Sprint(got) != "[1 1]" {
		t.Errorf("group sizes = %v, want [1 1]", got)
	}
}
