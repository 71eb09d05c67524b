package main

// The serving-side batching layer over real HTTP: singleflight
// de-duplication, the result cache, cross-request batch fan-out, and the
// cancelled-waiter race. Chaos latency (applied by the group executor
// inside the compute slot) stretches the computations so concurrency is
// deterministic, same as the robustness suite.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/sim"
)

// evalResponse captures one evaluate round-trip.
type evalResponse struct {
	status      int
	cacheStatus string
	body        string
}

func postEvalFull(t *testing.T, ts *httptest.Server, body string) evalResponse {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/evaluate", "application/json",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return evalResponse{resp.StatusCode, resp.Header.Get("Cache-Status"), string(raw)}
}

// withoutElapsed parses a result body and drops the wall-clock field, the
// one part of a response that legitimately differs between a shared group
// evaluation and a solo one.
func withoutElapsed(t *testing.T, body string) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("body %q is not JSON: %v", body, err)
	}
	delete(m, "elapsed_ms")
	return m
}

// TestSingleflightHammer: byte-identical concurrent requests compute ONCE.
// One admission, one miss, the rest coalesced, every body identical — and
// the next identical request answers from cache without touching
// admission at all.
func TestSingleflightHammer(t *testing.T) {
	cfg := chaosConfig(t, "route=/v1/evaluate,latency=300ms")
	cfg.MaxConcurrent = 1
	cfg.QueueDepth = -1 // no queue: a second admission attempt would shed
	srv := newServer(cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const body = `{"backend":"timely","network":"CNN-1","chips":3}`
	const n = 8
	results := make([]evalResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = postEvalFull(t, ts, body)
		}(i)
		if i == 0 {
			// Let the leader start computing (it holds the slot for the
			// injected 300ms) so the rest provably arrive mid-flight.
			time.Sleep(100 * time.Millisecond)
		}
	}
	wg.Wait()

	statuses := map[string]int{}
	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, r.status, r.body)
		}
		if r.body != results[0].body {
			t.Errorf("request %d body diverged:\n%s\nvs\n%s", i, r.body, results[0].body)
		}
		statuses[r.cacheStatus]++
	}
	if statuses["miss"] != 1 || statuses["coalesced"] != n-1 {
		t.Errorf("Cache-Status counts = %v, want 1 miss + %d coalesced", statuses, n-1)
	}
	if got := srv.metrics.Admitted.Load(); got != 1 {
		t.Errorf("Admitted = %d, want 1 — a coalesced waiter held a compute slot", got)
	}
	if got := srv.metrics.Shed(); got != 0 {
		t.Errorf("Shed = %d, want 0", got)
	}

	// The finished body is cached: the next identical request is a hit and
	// never contends for the (still size-1) limiter.
	again := postEvalFull(t, ts, body)
	if again.status != http.StatusOK || again.cacheStatus != "hit" {
		t.Fatalf("repeat request: status %d Cache-Status %q", again.status, again.cacheStatus)
	}
	if again.body != results[0].body {
		t.Errorf("cached body diverged from the computed one")
	}
	if got := srv.metrics.Admitted.Load(); got != 1 {
		t.Errorf("Admitted after cache hit = %d, want still 1", got)
	}
	_, _, coalesced := srv.evalQueue.Stats()
	if coalesced != n-1 {
		t.Errorf("coalesced_requests = %d, want %d", coalesced, n-1)
	}
	hits, _, _ := srv.evalCache.Stats()
	if hits != 1 {
		t.Errorf("cache_hits = %d, want 1", hits)
	}
}

// TestBatchedSeedsFuseAndMatchSolo: two functional requests differing only
// in seed gather into ONE group (one admission, one batch of two) and each
// member's response matches what a batching-disabled server computes for
// it alone, wall clock excepted.
func TestBatchedSeedsFuseAndMatchSolo(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the functional MLP")
	}
	cfg := quietConfig()
	cfg.BatchWindow = 300 * time.Millisecond
	srv := newServer(cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	bodyFor := func(seed int) string {
		return fmt.Sprintf(`{"backend":"functional","network":"mlp","trials":2,"seed":%d}`, seed)
	}
	var wg sync.WaitGroup
	batched := make([]evalResponse, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			batched[i] = postEvalFull(t, ts, bodyFor(2020+i))
		}(i)
	}
	wg.Wait()
	for i, r := range batched {
		if r.status != http.StatusOK {
			t.Fatalf("member %d: status %d body %s", i, r.status, r.body)
		}
		if r.cacheStatus != "miss" {
			t.Errorf("member %d: Cache-Status %q, want miss (distinct seeds never dedup)", i, r.cacheStatus)
		}
	}
	batches, batchedReqs, _ := srv.evalQueue.Stats()
	if batches != 1 || batchedReqs != 2 {
		t.Errorf("(batches, batched_requests) = (%d, %d), want (1, 2)", batches, batchedReqs)
	}
	if got := srv.metrics.Admitted.Load(); got != 1 {
		t.Errorf("Admitted = %d, want 1 — the group shares one slot", got)
	}

	// A server with batching, coalescing and caching all off answers each
	// request alone; the payloads must agree field for field.
	solo := quietConfig()
	solo.BatchWindow = -1
	solo.BatchMax = 1
	solo.CacheEntries = -1
	solo.NoCoalesce = true
	tsSolo := httptest.NewServer(newServer(solo))
	defer tsSolo.Close()
	for i := 0; i < 2; i++ {
		want := postEvalFull(t, tsSolo, bodyFor(2020+i))
		if want.status != http.StatusOK {
			t.Fatalf("solo member %d: status %d body %s", i, want.status, want.body)
		}
		if want.cacheStatus != "miss" {
			t.Errorf("solo member %d: Cache-Status %q, want miss", i, want.cacheStatus)
		}
		got := withoutElapsed(t, batched[i].body)
		if fmt.Sprint(got) != fmt.Sprint(withoutElapsed(t, want.body)) {
			t.Errorf("member %d: batched response diverged from solo:\n%s\nvs\n%s",
				i, batched[i].body, want.body)
		}
	}
}

// TestCancelledWaiterSparesSurvivors: a coalesced waiter whose client
// disconnects (499) must not cancel the shared computation for the
// waiters still listening.
func TestCancelledWaiterSparesSurvivors(t *testing.T) {
	cfg := chaosConfig(t, "route=/v1/evaluate,latency=400ms")
	srv := newServer(cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const body = `{"backend":"timely","network":"CNN-1","chips":5}`
	var wg sync.WaitGroup
	var survivor evalResponse
	wg.Add(1)
	go func() { // joins the group and stays
		defer wg.Done()
		survivor = postEvalFull(t, ts, body)
	}()
	time.Sleep(100 * time.Millisecond)

	// The impatient client coalesces onto the same in-flight job, then
	// hangs up halfway through the 400ms computation.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/evaluate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if _, err := ts.Client().Do(req); !strings.Contains(fmt.Sprint(err), "deadline") {
		t.Fatalf("impatient client: err = %v, want its own deadline", err)
	}

	wg.Wait()
	if survivor.status != http.StatusOK {
		t.Fatalf("survivor: status %d body %s", survivor.status, survivor.body)
	}
	if m := withoutElapsed(t, survivor.body); m["backend"] != "timely" {
		t.Errorf("survivor body implausible: %s", survivor.body)
	}
	if got := srv.metrics.ClientGone.Load(); got != 1 {
		t.Errorf("ClientGone = %d, want 1", got)
	}
	if got := srv.metrics.Admitted.Load(); got != 1 {
		t.Errorf("Admitted = %d, want 1", got)
	}
}

// TestNoCoalesceComputesEveryRequest: the baseline configuration really is
// a baseline — identical concurrent requests each take their own slot.
func TestNoCoalesceComputesEveryRequest(t *testing.T) {
	cfg := chaosConfig(t, "route=/v1/evaluate,latency=200ms")
	cfg.NoCoalesce = true
	cfg.BatchWindow = -1
	cfg.BatchMax = 1
	cfg.CacheEntries = -1
	srv := newServer(cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const body = `{"backend":"timely","network":"CNN-1","chips":7}`
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r := postEvalFull(t, ts, body); r.status != http.StatusOK || r.cacheStatus != "miss" {
				t.Errorf("status %d Cache-Status %q, want 200 miss", r.status, r.cacheStatus)
			}
		}()
	}
	wg.Wait()
	if got := srv.metrics.Admitted.Load(); got != 3 {
		t.Errorf("Admitted = %d, want 3 (no dedup in the baseline)", got)
	}
	_, _, coalesced := srv.evalQueue.Stats()
	if coalesced != 0 {
		t.Errorf("coalesced_requests = %d, want 0", coalesced)
	}
}

// TestEvalGroupTakesPublishedBody: a job that missed the result cache but
// whose key was published before its group ran takes the published body
// instead of computing again (a request that reaches the queue just after
// the group answering its key has left). Only the other jobs compute.
func TestEvalGroupTakesPublishedBody(t *testing.T) {
	srv := newServer(quietConfig())
	jobs := make([]*evalJob, 2)
	for i := range jobs {
		req := &sim.EvalRequest{Backend: "timely", Network: "CNN-1", Chips: i + 1}
		cacheKey, _, err := req.Keys()
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = &evalJob{req: req, cacheKey: cacheKey}
	}
	published := []byte("published\n")
	srv.evalCache.Put(jobs[0].cacheKey, published)

	bodies, errs := srv.runEvalGroup(context.Background(), jobs[:1])
	if errs[0] != nil || string(bodies[0]) != string(published) {
		t.Fatalf("cached job: body %q err %v, want the published body", bodies[0], errs[0])
	}
	if got := srv.metrics.Admitted.Load(); got != 0 {
		t.Errorf("Admitted = %d for a group answered from the cache, want 0", got)
	}

	bodies, errs = srv.runEvalGroup(context.Background(), jobs)
	if errs[0] != nil || string(bodies[0]) != string(published) {
		t.Errorf("mixed group, cached job: body %q err %v", bodies[0], errs[0])
	}
	if errs[1] != nil || !json.Valid(bodies[1]) {
		t.Errorf("mixed group, computed job: body %q err %v", bodies[1], errs[1])
	}
	if got := srv.metrics.Admitted.Load(); got != 1 {
		t.Errorf("Admitted = %d after the mixed group, want 1", got)
	}
}
