package main

// Overload, deadline, chaos and drain behavior: the service-robustness
// test suite. Determinism comes from the chaos injector (fixed latency,
// every-Nth error/panic counters) rather than racing real compute, so the
// shedding and recovery paths are exercised the same way on a loaded CI
// runner as on a workstation.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// chaosConfig builds a quiet server config with a parsed chaos spec.
func chaosConfig(t *testing.T, spec string) serverConfig {
	t.Helper()
	cfg := quietConfig()
	chaos, err := serve.ParseChaos(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = chaos
	return cfg
}

// doEvaluate posts a small analytic evaluation and returns the response.
func doEvaluate(t *testing.T, ts *httptest.Server) (*http.Response, string) {
	t.Helper()
	return doEvaluateBody(t, ts, `{"backend":"timely","network":"CNN-1"}`)
}

// doEvaluateChips posts an evaluation distinguished by its chip count —
// the admission tests need concurrent requests that neither coalesce nor
// batch together, so each occupies its own slot or queue position.
func doEvaluateChips(t *testing.T, ts *httptest.Server, chips int) (*http.Response, string) {
	t.Helper()
	return doEvaluateBody(t, ts,
		fmt.Sprintf(`{"backend":"timely","network":"CNN-1","chips":%d}`, chips))
}

func doEvaluateBody(t *testing.T, ts *httptest.Server, body string) (*http.Response, string) {
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
	return resp, string(raw)
}

// phaseOf extracts the "phase" field of the uniform error body.
func phaseOf(t *testing.T, body string) string {
	t.Helper()
	var e struct {
		Phase string `json:"phase"`
	}
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("body %q is not JSON: %v", body, err)
	}
	return e.Phase
}

// TestDecodeJSONRejectsTrailingContent pins the one-JSON-value body
// contract: content after the first value is a 400, not silently dropped.
func TestDecodeJSONRejectsTrailingContent(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name, body string
		want       int
	}{
		{"second object", `{"backend":"timely","network":"CNN-1"} {"backend":"prime"}`, http.StatusBadRequest},
		{"stray token", `{"backend":"timely","network":"CNN-1"}]`, http.StatusBadRequest},
		{"garbage", `{"backend":"timely","network":"CNN-1"}x`, http.StatusBadRequest},
		{"trailing whitespace ok", `{"backend":"timely","network":"CNN-1"}` + " \n\t ", http.StatusOK},
	}
	for _, tc := range cases {
		for _, path := range []string{"/v1/evaluate"} {
			status, body := post(t, ts, path, "application/json", tc.body)
			if status != tc.want {
				t.Errorf("%s on %s: status = %d, want %d (body %s)", tc.name, path, status, tc.want, body)
			}
			if tc.want != http.StatusOK {
				errorBody(t, body)
			}
		}
	}
	// The same decoder guards /v1/networks.
	status, body := post(t, ts, "/v1/networks", "application/json", tinySpecJSON("trailnet")+`{"x":1}`)
	if status != http.StatusBadRequest {
		t.Errorf("networks trailing: status = %d, want 400 (body %s)", status, body)
	}
}

// TestOverloadSheds saturates a 1-slot, 1-deep admission queue with
// chaos-injected latency and asserts the contract: the slot holder and
// the queued request succeed, everything beyond sheds with 429 and a
// Retry-After header instead of queueing unboundedly.
func TestOverloadSheds(t *testing.T) {
	cfg := chaosConfig(t, "route=/v1/evaluate,latency=400ms")
	cfg.MaxConcurrent = 1
	cfg.QueueDepth = 1
	srv := newServer(cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Occupy the compute slot, then the single queue position, then
	// offer two more requests that must bounce. Distinct chip counts keep
	// the requests in separate batch groups, so each one contends for
	// admission on its own.
	var wg sync.WaitGroup
	statuses := make(chan int, 4)
	retryAfters := make(chan string, 4)
	launch := func(chips int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := doEvaluateChips(t, ts, chips)
			statuses <- resp.StatusCode
			retryAfters <- resp.Header.Get("Retry-After")
		}()
	}
	launch(1) // takes the slot (sleeps 400ms inside it)
	time.Sleep(100 * time.Millisecond)
	launch(2) // takes the queue position
	time.Sleep(100 * time.Millisecond)
	launch(3) // queue full → 429
	launch(4) // queue full → 429
	wg.Wait()
	close(statuses)
	close(retryAfters)

	counts := map[int]int{}
	for s := range statuses {
		counts[s]++
	}
	if counts[http.StatusOK] != 2 || counts[http.StatusTooManyRequests] != 2 {
		t.Fatalf("status counts = %v, want 2×200 and 2×429", counts)
	}
	sawRetryAfter := false
	for ra := range retryAfters {
		if ra != "" {
			sawRetryAfter = true
		}
	}
	if !sawRetryAfter {
		t.Error("no shed response carried a Retry-After header")
	}
	if got := srv.metrics.ShedQueueFull.Load(); got != 2 {
		t.Errorf("ShedQueueFull = %d, want 2", got)
	}
	if got := srv.metrics.Admitted.Load(); got != 2 {
		t.Errorf("Admitted = %d, want 2", got)
	}
}

// TestQueueWaitSheds pins the max-queue-wait policy: a request that waits
// longer than -queue-wait sheds with 503, phase "queue".
func TestQueueWaitSheds(t *testing.T) {
	cfg := chaosConfig(t, "route=/v1/evaluate,latency=500ms")
	cfg.MaxConcurrent = 1
	cfg.QueueDepth = 4
	cfg.MaxQueueWait = 50 * time.Millisecond
	srv := newServer(cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // slot holder
		defer wg.Done()
		doEvaluateChips(t, ts, 1)
	}()
	time.Sleep(100 * time.Millisecond)
	resp, body := doEvaluateChips(t, ts, 2) // queued, must give up after 50ms
	wg.Wait()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if phase := phaseOf(t, body); phase != "queue" {
		t.Errorf("phase = %q, want queue", phase)
	}
	if got := srv.metrics.ShedQueueWait.Load(); got != 1 {
		t.Errorf("ShedQueueWait = %d, want 1", got)
	}
}

// TestQueueDeadline pins budget propagation: when the deadline class is
// smaller than the queue wait, the request fails 504 with phase "queue" —
// the client learns its time died waiting, not computing.
func TestQueueDeadline(t *testing.T) {
	// The slot holder runs in the generous "experiment" class so it keeps
	// the slot for the full injected latency; the victim's "evaluate"
	// class is shorter than that wait.
	cfg := chaosConfig(t, "route=/v1/experiments/,latency=500ms")
	cfg.MaxConcurrent = 1
	cfg.QueueDepth = 4
	cfg.EvaluateTimeout = 60 * time.Millisecond
	srv := newServer(cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		get(t, ts, "/v1/experiments/table5", "") // holds the slot past the victim's budget
	}()
	time.Sleep(100 * time.Millisecond)
	resp, body := doEvaluate(t, ts)
	wg.Wait()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, body)
	}
	if phase := phaseOf(t, body); phase != "queue" {
		t.Errorf("phase = %q, want queue", phase)
	}
	if got := srv.metrics.QueueDeadline.Load(); got != 1 {
		t.Errorf("QueueDeadline = %d, want 1", got)
	}
}

// TestPanicRecovery injects a handler panic via chaos and asserts the
// process converts it into a 500 and keeps serving.
func TestPanicRecovery(t *testing.T) {
	cfg := chaosConfig(t, "route=/v1/evaluate,panic=1")
	srv := newServer(cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := doEvaluate(t, ts)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %s)", resp.StatusCode, body)
	}
	errorBody(t, body)
	if got := srv.metrics.Panics.Load(); got != 1 {
		t.Errorf("Panics = %d, want 1", got)
	}
	// The process is alive and the untouched routes still serve.
	status, _, _ := get(t, ts, "/healthz", "")
	if status != http.StatusOK {
		t.Fatalf("healthz after panic: status = %d", status)
	}
}

// TestChaosErrorInjection pins the deterministic every-Nth error
// schedule: error=2 fails exactly requests 2 and 4. The fault injection
// sits in front of the result cache, so the schedule stays per-request
// even though request 3 answers from cache.
func TestChaosErrorInjection(t *testing.T) {
	cfg := chaosConfig(t, "route=/v1/evaluate,error=2")
	ts := httptest.NewServer(newServer(cfg))
	defer ts.Close()
	want := []int{http.StatusOK, http.StatusInternalServerError, http.StatusOK, http.StatusInternalServerError}
	for i, w := range want {
		resp, body := doEvaluate(t, ts)
		if resp.StatusCode != w {
			t.Errorf("request %d: status = %d, want %d (body %s)", i+1, resp.StatusCode, w, body)
		}
	}
}

// TestReadyzDrain pins the liveness/readiness split: /readyz flips to 503
// when draining and compute requests shed, while /healthz stays 200 so
// orchestrators do not kill a draining pod.
func TestReadyzDrain(t *testing.T) {
	srv := newServer(quietConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, body, _ := get(t, ts, "/readyz", "")
	if status != http.StatusOK || !strings.Contains(body, `"ready"`) {
		t.Fatalf("readyz before drain: status %d body %s", status, body)
	}

	srv.StartDrain()

	status, body, _ = get(t, ts, "/readyz", "")
	if status != http.StatusServiceUnavailable || !strings.Contains(body, `"draining"`) {
		t.Fatalf("readyz during drain: status %d body %s", status, body)
	}
	resp, body2 := doEvaluate(t, ts)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("evaluate during drain: status = %d, want 503 (body %s)", resp.StatusCode, body2)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain shed without Retry-After")
	}
	if got := srv.metrics.ShedDraining.Load(); got != 1 {
		t.Errorf("ShedDraining = %d, want 1", got)
	}
	status, _, _ = get(t, ts, "/healthz", "")
	if status != http.StatusOK {
		t.Errorf("healthz during drain: status = %d, want 200 (liveness is not routability)", status)
	}
}

// TestCheapEndpointsBypassAdmission proves liveness and inventory never
// queue behind compute: with the only compute slot held and no queue,
// every cheap endpoint still answers immediately.
func TestCheapEndpointsBypassAdmission(t *testing.T) {
	cfg := chaosConfig(t, "route=/v1/evaluate,latency=600ms")
	cfg.MaxConcurrent = 1
	cfg.QueueDepth = -1 // no queue: a busy slot sheds immediately
	ts := httptest.NewServer(newServer(cfg))
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		doEvaluateChips(t, ts, 1) // occupies the slot for 600ms
	}()
	time.Sleep(100 * time.Millisecond)

	for _, path := range []string{"/healthz", "/metricz", "/v1/networks", "/v1/experiments"} {
		start := time.Now()
		status, _, _ := get(t, ts, path, "")
		if status != http.StatusOK {
			t.Errorf("%s under load: status = %d, want 200", path, status)
		}
		if d := time.Since(start); d > 300*time.Millisecond {
			t.Errorf("%s under load took %s — queued behind compute?", path, d)
		}
	}
	// With no queue, a merely-busy slot is normal operation: /readyz must
	// stay ready (it would otherwise flap under any steady traffic)...
	status, body, _ := get(t, ts, "/readyz", "")
	if status != http.StatusOK || !strings.Contains(body, `"ready"`) {
		t.Errorf("readyz with busy slot but no sheds: status %d body %s, want 200 ready", status, body)
	}
	// ...until the compute path actually sheds...
	resp, _ := doEvaluateChips(t, ts, 2)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("compute under load: status = %d, want 429", resp.StatusCode)
	}
	// ...after which /readyz answers immediately AND honestly: requests
	// are bouncing, so balancers should route away.
	start := time.Now()
	status, body, _ = get(t, ts, "/readyz", "")
	if status != http.StatusServiceUnavailable || !strings.Contains(body, `"overloaded"`) {
		t.Errorf("readyz under saturation: status %d body %s, want 503 overloaded", status, body)
	}
	if d := time.Since(start); d > 300*time.Millisecond {
		t.Errorf("readyz under load took %s — queued behind compute?", d)
	}
	wg.Wait()
}

// TestMetricz asserts the counter surface exists and moves.
func TestMetricz(t *testing.T) {
	ts := testServer(t)
	doEvaluate(t, ts)
	status, body, ctype := get(t, ts, "/metricz", "")
	if status != http.StatusOK || !strings.Contains(ctype, "application/json") {
		t.Fatalf("metricz: status %d type %q", status, ctype)
	}
	var m map[string]int64
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"requests", "admitted", "shed_total", "shed_queue_full",
		"queue_deadline", "compute_deadline", "client_gone", "panics", "in_flight", "queued",
		"cache_hits", "cache_misses", "cache_evictions", "cache_hits_peer_owned",
		"batches", "batched_requests", "coalesced_requests",
		"forwarded", "forward_errors", "failover_local"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metricz missing %q (got %v)", key, m)
		}
	}
	// Standalone server: the cluster counters exist (stable snapshot
	// shape) and stay zero.
	if m["forwarded"] != 0 || m["forward_errors"] != 0 || m["failover_local"] != 0 ||
		m["cache_hits_peer_owned"] != 0 {
		t.Errorf("standalone cluster counters nonzero: %v", m)
	}
	if m["admitted"] < 1 || m["requests"] < 2 {
		t.Errorf("counters did not move: %v", m)
	}
	// The one evaluate above went through the batching layer: one miss,
	// one single-member batch, nothing coalesced yet.
	if m["cache_misses"] != 1 || m["batches"] != 1 || m["batched_requests"] != 1 {
		t.Errorf("batching counters after one evaluate: %v", m)
	}
}
