package main

// The body memo in front of the result cache: a repeated evaluate body is
// answered without being decoded or keyed again, while the POST body
// contract, the cache counters and the cluster's forwarding rules hold
// exactly as for a first sighting.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// memoBody is a registry-free evaluate body (an inline spec).
func memoBody(name string) string {
	return fmt.Sprintf(`{"backend":"timely","spec":%s}`, tinySpecJSON(name))
}

// serverMetricz reads an in-process server's /metricz counters.
func serverMetricz(t *testing.T, s *server) map[string]int64 {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricz", nil))
	var m map[string]int64
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("metricz %s: %v", rec.Body, err)
	}
	return m
}

// TestEvaluateMemoRepeat: the second sighting of a body is a cache hit
// with the first answer's exact bytes, reached without decoding.
func TestEvaluateMemoRepeat(t *testing.T) {
	srv := newServer(quietConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := memoBody("memo-repeat")

	first := postEvalFull(t, ts, body)
	if first.status != http.StatusOK || first.cacheStatus != "miss" {
		t.Fatalf("first: status %d cache %q (%s)", first.status, first.cacheStatus, first.body)
	}
	second := postEvalFull(t, ts, body)
	if second.status != http.StatusOK || second.cacheStatus != "hit" || second.body != first.body {
		t.Fatalf("second: status %d cache %q, bytes equal %t", second.status, second.cacheStatus,
			second.body == first.body)
	}
	m := serverMetricz(t, srv)
	if m["decode_skipped"] != 1 || m["cache_hits"] != 1 || m["cache_misses"] != 1 {
		t.Errorf("decode_skipped %d cache_hits %d cache_misses %d, want 1 1 1",
			m["decode_skipped"], m["cache_hits"], m["cache_misses"])
	}
}

// TestEvaluateMemoRejectsBadBodies: bodies that fail the strict decode or
// key derivation get the same 400 every time and never enter the memo.
func TestEvaluateMemoRejectsBadBodies(t *testing.T) {
	srv := newServer(quietConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, tc := range []struct{ name, body string }{
		{"malformed", `{"backend":"timely","network":`},
		{"unknown field", `{"backend":"timely","network":"CNN-1","bogus":1}`},
		{"trailing content", `{"backend":"timely","network":"CNN-1"} {"backend":"prime"}`},
		{"no backend", `{"network":"CNN-1"}`},
	} {
		first := postEvalFull(t, ts, tc.body)
		second := postEvalFull(t, ts, tc.body)
		if first.status != http.StatusBadRequest || second.status != first.status || second.body != first.body {
			t.Errorf("%s: statuses %d, %d; bodies %q, %q", tc.name, first.status, second.status,
				first.body, second.body)
		}
	}
	if n := srv.bodyKeys.Len(); n != 0 {
		t.Errorf("memo holds %d entries after only bad bodies", n)
	}
	if got := serverMetricz(t, srv)["decode_skipped"]; got != 0 {
		t.Errorf("decode_skipped = %d, want 0", got)
	}
}

// TestEvaluateMemoKeepsBodyContract: a memoized body still has to arrive
// as application/json and within the size limit.
func TestEvaluateMemoKeepsBodyContract(t *testing.T) {
	srv := newServer(quietConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := memoBody("memo-contract")
	if r := postEvalFull(t, ts, body); r.status != http.StatusOK {
		t.Fatalf("warm-up: status %d (%s)", r.status, r.body)
	}
	status, raw := post(t, ts, "/v1/evaluate", "text/plain", body)
	if status != http.StatusUnsupportedMediaType {
		t.Errorf("memoized body as text/plain: status = %d, want 415", status)
	}
	errorBody(t, raw)
	big := body + strings.Repeat(" ", maxRequestBody)
	status, raw = post(t, ts, "/v1/evaluate", "application/json", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("memoized body past the limit: status = %d, want 413", status)
	}
	errorBody(t, raw)
	if got := serverMetricz(t, srv)["decode_skipped"]; got != 0 {
		t.Errorf("decode_skipped = %d, want 0", got)
	}
}

// TestEvaluateMemoEvictedResult: with room for one result, a memo hit
// whose answer was evicted computes again, and every request still
// consults the result cache exactly once.
func TestEvaluateMemoEvictedResult(t *testing.T) {
	cfg := quietConfig()
	cfg.CacheEntries = 1
	srv := newServer(cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if status, raw := post(t, ts, "/v1/networks", "application/json", tinySpecJSON("memo-evict")); status != http.StatusOK {
		t.Fatalf("register: status %d (%s)", status, raw)
	}
	body := memoBody("memo-evicted")
	// A registered name is never memoized, so its result evicts body's
	// result while body's memo entry stays.
	byName := `{"backend":"timely","network":"memo-evict"}`

	first := postEvalFull(t, ts, body)
	if r := postEvalFull(t, ts, byName); r.status != http.StatusOK || r.cacheStatus != "miss" {
		t.Fatalf("by name: status %d cache %q (%s)", r.status, r.cacheStatus, r.body)
	}
	again := postEvalFull(t, ts, body)
	if again.status != http.StatusOK || again.cacheStatus != "miss" {
		t.Fatalf("after eviction: status %d cache %q, want 200 miss", again.status, again.cacheStatus)
	}
	if got, want := withoutElapsed(t, again.body), withoutElapsed(t, first.body); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("recomputed body differs:\n%v\nvs\n%v", got, want)
	}
	m := serverMetricz(t, srv)
	if m["cache_misses"] != 3 || m["cache_hits"] != 0 || m["decode_skipped"] != 0 {
		t.Errorf("after eviction: cache_misses %d cache_hits %d decode_skipped %d, want 3 0 0",
			m["cache_misses"], m["cache_hits"], m["decode_skipped"])
	}
	if r := postEvalFull(t, ts, body); r.cacheStatus != "hit" || r.body != again.body {
		t.Errorf("repeat after recompute: cache %q, bytes equal %t", r.cacheStatus, r.body == again.body)
	}
	m = serverMetricz(t, srv)
	if m["cache_misses"] != 3 || m["cache_hits"] != 1 || m["decode_skipped"] != 1 {
		t.Errorf("after the repeat: cache_misses %d cache_hits %d decode_skipped %d, want 3 1 1",
			m["cache_misses"], m["cache_hits"], m["decode_skipped"])
	}
}

// TestEvaluateMemoOffWithoutCache: with caching disabled there is no
// memo either, and repeats compute.
func TestEvaluateMemoOffWithoutCache(t *testing.T) {
	cfg := quietConfig()
	cfg.CacheEntries = -1
	srv := newServer(cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := memoBody("memo-disabled")
	for i := 0; i < 2; i++ {
		if r := postEvalFull(t, ts, body); r.status != http.StatusOK || r.cacheStatus != "miss" {
			t.Errorf("#%d: status %d cache %q, want 200 miss", i, r.status, r.cacheStatus)
		}
	}
	if srv.bodyKeys != nil {
		t.Error("memo allocated with caching disabled")
	}
}

// TestClusterMemo: through a non-owner entry, a repeated registry-free
// body is answered through the memo, while a registered-name body stays
// out of it and is forwarded every time.
func TestClusterMemo(t *testing.T) {
	reps := startCluster(t, 3, clusterOptions{})
	entry := reps[0]
	clu := entry.srv.cfg.Cluster
	resp, err := http.Post("http://"+entry.addr+"/v1/networks", "application/json",
		strings.NewReader(tinySpecJSON("memo-cluster-net")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d", resp.StatusCode)
	}

	byName := bodiesOwnedBy(t, reps, 1, `{"backend":"timely","network":"memo-cluster-net","chips":%d}`, 1)[0]
	for i := 0; i < 2; i++ {
		before, _, _ := clu.Counters()
		status, hdr, got := clusterPost(t, entry.addr, byName, nil)
		if status != http.StatusOK || hdr.Get(cluster.ServedByHeader) != reps[1].addr {
			t.Errorf("by name #%d: status %d served by %q, want 200 from the owner (%s)",
				i, status, hdr.Get(cluster.ServedByHeader), got)
		}
		if after, _, _ := clu.Counters(); after != before+1 {
			t.Errorf("by name #%d was not forwarded", i)
		}
	}
	if n := entry.srv.bodyKeys.Len(); n != 0 {
		t.Errorf("entry memo holds %d entries after registered-name bodies only", n)
	}

	free := bodyOwnedBy(t, reps, 2)
	_, _, first := clusterPost(t, entry.addr, free, nil)
	status, hdr, second := clusterPost(t, entry.addr, free, nil)
	if status != http.StatusOK || second != first || hdr.Get("Cache-Status") != "hit" ||
		hdr.Get(cluster.ServedByHeader) != entry.addr {
		t.Errorf("registry-free repeat: status %d cache %q served by %q, bytes equal %t",
			status, hdr.Get("Cache-Status"), hdr.Get(cluster.ServedByHeader), second == first)
	}
	m := metricz(t, entry.addr)
	if m["decode_skipped"] != 1 || m["cache_hits_peer_owned"] != 1 {
		t.Errorf("entry decode_skipped %d cache_hits_peer_owned %d, want 1 1",
			m["decode_skipped"], m["cache_hits_peer_owned"])
	}
}

// FuzzEvaluateBodyTwice: any body posted twice to a standalone server
// gets the same status and the same bytes (elapsed_ms aside), whether the
// second answer comes through the memo, the result cache or a fresh
// computation. Bodies naming the functional or timing backend are
// skipped: they run Monte-Carlo trials or a cycle-level simulation, too
// slow for a fuzz iteration, and the decode/key/memo path they would
// take is the same as the analytic backends'.
func FuzzEvaluateBodyTwice(f *testing.F) {
	for _, s := range []string{
		`{"backend":"timely","network":"CNN-1"}`,
		`{"backend":"prime","network":"VGG-D","chips":4}`,
		`{"backend":"isaac","network":"nope"}`,
		`{"backend":"timely","network":"CNN-1","bits":7}`,
		`{"backend":"timely","spec":{"name":"x","input":{"c":1,"h":4,"w":4},"layers":[{"kind":"fc","units":2}]}}`,
		`{"backend":"timely","network":"y","spec":{"name":"x","input":{"c":1,"h":4,"w":4},"layers":[]}}`,
		`{"backend":"timely","network":"CNN-1","bogus":1}`,
		`{"backend":"timely","network":"CNN-1"} {}`,
		`{"backend":"timely","network":"CNN-1"}` + " \n",
		`{"backend":`,
		``,
	} {
		f.Add([]byte(s))
	}
	cfg := quietConfig()
	cfg.BatchWindow = -1 // no gather wait: a miss costs its compute only
	srv := newServer(cfg)
	send := func(body []byte) (int, string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code, elapsedRe.ReplaceAllString(rec.Body.String(), `"elapsed_ms": 0`)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var probe struct{ Backend string }
		if json.Unmarshal(body, &probe) == nil && (probe.Backend == "functional" || probe.Backend == "timing") {
			return
		}
		s1, b1 := send(body)
		s2, b2 := send(body)
		if s1 != s2 || b1 != b2 {
			t.Fatalf("body %q: first %d %q, second %d %q", body, s1, b1, s2, b2)
		}
	})
}

// BenchmarkEvaluateHit measures the hit path in process: one inline-spec
// body, answered from the result cache on every iteration.
func BenchmarkEvaluateHit(b *testing.B) {
	srv := newServer(quietConfig())
	body := memoBody("bench-hit")
	do := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
	if rec := do(); rec.Code != http.StatusOK {
		b.Fatalf("warm-up: status %d (%s)", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := do(); rec.Header().Get("Cache-Status") != "hit" {
			b.Fatalf("iteration %d: cache %q", i, rec.Header().Get("Cache-Status"))
		}
	}
}
