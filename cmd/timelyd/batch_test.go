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
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
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

// holdSlot takes the server's only compute slot, so evaluate groups queue
// behind it until the returned release is called.
func holdSlot(t *testing.T, srv *server) (release func()) {
	t.Helper()
	if conc, _ := srv.limiter.Capacity(); conc != 1 {
		t.Fatalf("holdSlot needs a one-slot server, have %d slots", conc)
	}
	g, err := srv.limiter.Acquire(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return g.Release
}

// TestInvalidOptionsRejectedBeforeAdmission: a request whose options (or
// functional workload) are invalid is a 400 at once, even while the only compute slot is held and
// no queue is configured. It never joins the coalescing queue or takes an
// admission slot, and its body is the bytes the same error gets when
// sim.Evaluate reports it.
func TestInvalidOptionsRejectedBeforeAdmission(t *testing.T) {
	cfg := quietConfig()
	cfg.MaxConcurrent = 1
	cfg.QueueDepth = -1 // no queue: anything that reached admission would shed
	srv := newServer(cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	release := holdSlot(t, srv)
	defer release()

	for _, body := range []string{
		`{"backend":"timely","network":"CNN-1","bits":7}`,
		`{"backend":"timely","network":"CNN-1","trials":3}`,
		`{"backend":"functional","network":"mlp","fault_rate":0.01}`,
		`{"backend":"functional","network":"mlp","noise_ps":-1}`,
		`{"backend":"functional","network":"VGG-D"}`,
		`{"backend":"timing","network":"VGG-D","images":5000}`,
	} {
		var req sim.EvalRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		_, evalErr := sim.Evaluate(context.Background(), &req)
		if evalErr == nil {
			t.Fatalf("%s: sim.Evaluate accepted it", body)
		}
		want := httptest.NewRecorder()
		serve.WriteError(want, nil, http.StatusBadRequest, "", 0, evalErr)

		got := postEvalFull(t, ts, body)
		if got.status != http.StatusBadRequest || got.body != want.Body.String() {
			t.Errorf("%s: status %d body %q, want 400 %q", body, got.status, got.body, want.Body.String())
		}
	}
	if got := srv.metrics.Admitted.Load(); got != 0 {
		t.Errorf("Admitted = %d, want 0", got)
	}
	if batches, batched, coalesced := srv.evalQueue.Stats(); batches+batched+coalesced != 0 {
		t.Errorf("queue stats = (%d, %d, %d), want none", batches, batched, coalesced)
	}
}

// awaitQueue blocks until at least batched evaluate requests have entered
// batch groups as distinct jobs and at least coalesced have joined one.
func awaitQueue(t *testing.T, srv *server, batched, coalesced int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, b, c := srv.evalQueue.Stats()
		if b >= batched && c >= coalesced {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d distinct and %d coalesced requests, want %d and %d", b, c, batched, coalesced)
		}
		time.Sleep(time.Millisecond)
	}
}

// evaluateDirect is the unbatched reference for an evaluate body: the
// bytes sim.Evaluate's result encodes to, exactly as the server writes
// them, with elapsed_ms normalized.
func evaluateDirect(t *testing.T, body string) string {
	t.Helper()
	var req sim.EvalRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Evaluate(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return normElapsed(string(raw) + "\n")
}

// normElapsed zeroes the one wall-clock field of an EvalResult body.
func normElapsed(body string) string {
	return elapsedRe.ReplaceAllString(body, `"elapsed_ms": 0`)
}

// functionalBody is a functional MLP request; bodies differing only in
// seed share a batch key, so they fuse.
func functionalBody(seed int) string {
	return fmt.Sprintf(`{"backend":"functional","network":"mlp","trials":2,"seed":%d}`, seed)
}

// TestBatchedSeedsFuseAndMatchSolo: functional requests differing only in
// seed that queue behind a busy slot gather into ONE group (one
// admission, one batch), and each member's response is the bytes
// sim.Evaluate gives for it alone, wall clock excepted. A byte-identical
// request queued alongside coalesces and gets the same bytes.
func TestBatchedSeedsFuseAndMatchSolo(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the functional MLP")
	}
	cfg := quietConfig()
	cfg.MaxConcurrent = 1
	srv := newServer(cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	bodies := []string{functionalBody(2020), functionalBody(2021), functionalBody(2021)}
	release := holdSlot(t, srv)
	var wg sync.WaitGroup
	batched := make([]evalResponse, len(bodies))
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batched[i] = postEvalFull(t, ts, body)
		}()
	}
	// Two distinct jobs queued, plus the duplicate coalesced onto one.
	awaitQueue(t, srv, 2, 1)
	release()
	wg.Wait()

	statuses := map[string]int{}
	for i, r := range batched {
		if r.status != http.StatusOK {
			t.Fatalf("member %d: status %d body %s", i, r.status, r.body)
		}
		statuses[r.cacheStatus]++
	}
	if statuses["miss"] != 2 || statuses["coalesced"] != 1 {
		t.Errorf("Cache-Status counts = %v, want 2 miss + 1 coalesced", statuses)
	}
	batches, batchedReqs, _ := srv.evalQueue.Stats()
	if batches != 1 || batchedReqs != 2 {
		t.Errorf("(batches, batched_requests) = (%d, %d), want (1, 2)", batches, batchedReqs)
	}
	if got := srv.metrics.Admitted.Load(); got != 1 {
		t.Errorf("Admitted = %d, want 1 — the group shares one slot", got)
	}
	for i, body := range bodies {
		if got, want := normElapsed(batched[i].body), evaluateDirect(t, body); got != want {
			t.Errorf("member %d: batched response diverged from sim.Evaluate:\n%s\nvs\n%s", i, got, want)
		}
	}
}

// TestAbandonedGroupAnswersLiveClient: a request that arrives after every
// waiter of the group gathering its batch key has left still gets a full
// answer. Seed A's client gives up while its group waits for the held
// slot; seed B, posted next, must not inherit that group's cancellation
// (an empty 200 booked as client_gone) but get sim.Evaluate's bytes.
func TestAbandonedGroupAnswersLiveClient(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the functional MLP")
	}
	cfg := quietConfig()
	cfg.MaxConcurrent = 1
	srv := newServer(cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	release := holdSlot(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/evaluate",
		strings.NewReader(functionalBody(3030)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if _, err := ts.Client().Do(req); !strings.Contains(fmt.Sprint(err), "deadline") {
		t.Fatalf("client A: err = %v, want its own deadline", err)
	}

	done := make(chan evalResponse, 1)
	go func() { done <- postEvalFull(t, ts, functionalBody(3031)) }()
	awaitQueue(t, srv, 2, 0)
	release()
	b := <-done
	if b.status != http.StatusOK || b.cacheStatus != "miss" {
		t.Fatalf("client B: status %d Cache-Status %q body %q, want a 200 miss", b.status, b.cacheStatus, b.body)
	}
	if got, want := normElapsed(b.body), evaluateDirect(t, functionalBody(3031)); got != want {
		t.Errorf("client B body diverged from sim.Evaluate:\n%s\nvs\n%s", got, want)
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
		jobs[i] = &evalJob{req: req, evalKeys: evalKeys{cacheKey: cacheKey}}
	}
	published := []byte("published\n")
	srv.evalCache.Put(jobs[0].cacheKey, published)

	results, errs := srv.runEvalGroup(context.Background(), func() []*evalJob { return jobs[:1] })
	if errs[0] != nil || string(results[0].body) != string(published) {
		t.Fatalf("cached job: body %q err %v, want the published body", results[0].body, errs[0])
	}
	if got := srv.metrics.Admitted.Load(); got != 0 {
		t.Errorf("Admitted = %d for a group answered from the cache, want 0", got)
	}

	results, errs = srv.runEvalGroup(context.Background(), func() []*evalJob { return jobs })
	if errs[0] != nil || string(results[0].body) != string(published) {
		t.Errorf("mixed group, cached job: body %q err %v", results[0].body, errs[0])
	}
	if errs[1] != nil || !json.Valid(results[1].body) {
		t.Errorf("mixed group, computed job: body %q err %v", results[1].body, errs[1])
	}
	if got := srv.metrics.Admitted.Load(); got != 1 {
		t.Errorf("Admitted = %d after the mixed group, want 1", got)
	}
}

// lockedBuffer is a log sink safe for the server's concurrent writers.
type lockedBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// TestEvaluateAccessLogQueueWait: an evaluate request whose group waited
// for the compute slot logs that wait, and so does a request coalesced
// onto it. The first request holds the single slot for the injected
// 300ms; the second (another batch key) and the third (identical to the
// second) queue behind it.
func TestEvaluateAccessLogQueueWait(t *testing.T) {
	var logs lockedBuffer
	cfg := chaosConfig(t, "route=/v1/evaluate,latency=300ms")
	cfg.MaxConcurrent = 1
	cfg.Logger = log.New(&logs, "", 0)
	ts := httptest.NewServer(newServer(cfg))

	bodies := []string{
		`{"backend":"timely","network":"CNN-1","chips":1}`,
		`{"backend":"timely","network":"CNN-1","chips":2}`,
		`{"backend":"timely","network":"CNN-1","chips":2}`,
	}
	results := make([]evalResponse, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = postEvalFull(t, ts, body)
		}()
		time.Sleep(100 * time.Millisecond)
	}
	wg.Wait()
	ts.Close() // waits for every handler, so every access line is written
	for i, want := range []string{"miss", "miss", "coalesced"} {
		if r := results[i]; r.status != http.StatusOK || r.cacheStatus != want {
			t.Fatalf("request %d: status %d Cache-Status %q, want 200 %s", i, r.status, r.cacheStatus, want)
		}
	}

	var waits []float64
	for _, line := range strings.Split(strings.TrimSpace(logs.buf.String()), "\n") {
		if !strings.Contains(line, "path=/v1/evaluate") {
			continue
		}
		if !strings.Contains(line, "class=evaluate") {
			t.Errorf("access line without class=evaluate: %s", line)
		}
		_, after, ok := strings.Cut(line, "wait_ms=")
		if !ok {
			t.Fatalf("access line without wait_ms: %s", line)
		}
		ms, err := strconv.ParseFloat(strings.Fields(after)[0], 64)
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, ms)
	}
	if len(waits) != len(bodies) {
		t.Fatalf("%d evaluate access lines, want %d:\n%s", len(waits), len(bodies), logs.buf.String())
	}
	// The holder finishes first; the queued group's two waiters follow.
	for _, ms := range waits[1:] {
		if ms <= 0 {
			t.Errorf("queued request logged wait_ms=%.1f, want > 0 (all waits %v)", ms, waits)
		}
	}
}
