package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// quietConfig is the baseline test configuration: one inner worker,
// generous deadline classes and admission headroom (so tests that are not
// about overload never shed), and no log noise.
func quietConfig() serverConfig {
	return serverConfig{
		Par:               1,
		EvaluateTimeout:   time.Minute,
		ExperimentTimeout: time.Minute,
		MaxConcurrent:     16,
		QueueDepth:        128,
		Logger:            log.New(io.Discard, "", 0),
	}
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(quietConfig()))
	t.Cleanup(ts.Close)
	return ts
}

// get fetches a path and returns status, body and content type.
func get(t *testing.T, ts *httptest.Server, path string, accept string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func postEvaluate(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// errorBody asserts the uniform JSON error shape and returns the message.
func errorBody(t *testing.T, body string) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
		t.Fatalf("body is not a JSON error object: %q (%v)", body, err)
	}
	return e.Error
}

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	status, body, ctype := get(t, ts, "/healthz", "")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("content type = %q", ctype)
	}
	var h struct {
		Status      string   `json:"status"`
		Backends    []string `json:"backends"`
		Experiments int      `json:"experiments"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Experiments < 10 || len(h.Backends) < 4 {
		t.Errorf("healthz = %+v", h)
	}
}

func TestEvaluateHappyPath(t *testing.T) {
	ts := testServer(t)
	status, body := postEvaluate(t, ts, `{"backend":"timely","network":"VGG-D","chips":2}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var res struct {
		Backend string  `json:"backend"`
		Network string  `json:"network"`
		Chips   int     `json:"chips"`
		Energy  float64 `json:"energy_mj_per_image"`
		IPS     float64 `json:"images_per_sec"`
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.Backend != "timely" || res.Network != "VGG-D" || res.Chips != 2 {
		t.Errorf("result = %+v", res)
	}
	if res.Energy <= 0 || res.IPS <= 0 {
		t.Errorf("non-positive metrics: %+v", res)
	}
}

// TestEvaluateTimingBackend: the event-driven backend is reachable over the
// wire, and its cycle-level measurement block rides on the response.
func TestEvaluateTimingBackend(t *testing.T) {
	ts := testServer(t)
	status, body := postEvaluate(t, ts, `{"backend":"timing","network":"SqueezeNet","images":8}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var res struct {
		Backend string  `json:"backend"`
		Energy  float64 `json:"energy_mj_per_image"`
		IPS     float64 `json:"images_per_sec"`
		Timing  *struct {
			Images   int     `json:"images"`
			Commands int     `json:"commands"`
			P50      float64 `json:"latency_p50_ms"`
			P99      float64 `json:"latency_p99_ms"`
			Layers   []struct {
				Name string `json:"name"`
			} `json:"layers"`
			Units []struct {
				Role string `json:"role"`
			} `json:"units"`
		} `json:"timing"`
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.Backend != "timing" || res.Energy <= 0 || res.IPS <= 0 {
		t.Errorf("result header = %+v", res)
	}
	if res.Timing == nil {
		t.Fatal("response carries no timing block")
	}
	if res.Timing.Images < 8 || res.Timing.Commands <= 0 ||
		res.Timing.P50 <= 0 || res.Timing.P99 < res.Timing.P50 ||
		len(res.Timing.Layers) == 0 || len(res.Timing.Units) == 0 {
		t.Errorf("timing block implausible: %+v", res.Timing)
	}
	// The analytic backends must not grow a timing block.
	_, plain := postEvaluate(t, ts, `{"backend":"timely","network":"SqueezeNet"}`)
	if strings.Contains(plain, `"timing"`) {
		t.Errorf("analytic response carries a timing block: %s", plain)
	}
	// images only makes sense on the simulator.
	status, body = postEvaluate(t, ts, `{"backend":"timely","network":"SqueezeNet","images":8}`)
	if status != http.StatusBadRequest {
		t.Errorf("images on analytic backend: status = %d, body %s", status, body)
	}
}

func TestEvaluateBadRequests(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name, body string
	}{
		{"unknown backend", `{"backend":"abacus","network":"VGG-D"}`},
		{"unknown network", `{"backend":"timely","network":"GPT-7"}`},
		{"invalid option", `{"backend":"timely","network":"VGG-D","bits":3}`},
		{"inapplicable option", `{"backend":"prime","network":"VGG-D","gamma":4}`},
		{"malformed json", `{"backend":`},
		{"unknown field", `{"backend":"timely","network":"VGG-D","warp":9}`},
	}
	for _, tc := range cases {
		status, body := postEvaluate(t, ts, tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", tc.name, status, body)
			continue
		}
		errorBody(t, body)
	}
}

// post sends a JSON body to a path with an arbitrary content type.
func post(t *testing.T, ts *httptest.Server, path, ctype, body string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, ctype, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// tinySpecJSON is a custom network absent from the zoo, in wire form.
func tinySpecJSON(name string) string {
	return fmt.Sprintf(`{
		"name": %q,
		"input": {"c": 3, "h": 32, "w": 32},
		"layers": [
			{"name": "conv1", "kind": "conv", "filters": 16, "kernel": 3, "pad": 1},
			{"kind": "maxpool", "kernel": 2, "stride": 2},
			{"kind": "fc", "units": 10}
		]
	}`, name)
}

func TestEvaluateInlineSpec(t *testing.T) {
	ts := testServer(t)
	body := fmt.Sprintf(`{"backend":"timely","spec":%s}`, tinySpecJSON("httpnet"))
	status, raw := postEvaluate(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, raw)
	}
	var res struct {
		Network  string  `json:"network"`
		Energy   float64 `json:"energy_mj_per_image"`
		IPS      float64 `json:"images_per_sec"`
		SpecHash string  `json:"spec_hash"`
	}
	if err := json.Unmarshal([]byte(raw), &res); err != nil {
		t.Fatal(err)
	}
	if res.Network != "httpnet" || res.Energy <= 0 || res.IPS <= 0 || res.SpecHash == "" {
		t.Errorf("result = %+v", res)
	}

	// An invalid inline spec is the client's fault.
	bad := `{"backend":"timely","spec":{"name":"x","input":{"c":1,"h":4,"w":4},"layers":[{"kind":"conv","filters":0,"kernel":3}]}}`
	status, raw = postEvaluate(t, ts, bad)
	if status != http.StatusBadRequest {
		t.Errorf("invalid spec: status = %d, body %s", status, raw)
	}
	if msg := errorBody(t, raw); !strings.Contains(msg, "filters") {
		t.Errorf("error %q does not name the offending field", msg)
	}
}

// TestWeightlessSpecRejected: a spec with no conv or fc layer is a client
// error on both spec endpoints, and the server keeps answering after it.
func TestWeightlessSpecRejected(t *testing.T) {
	ts := testServer(t)
	spec := `{"name":"poolonly","input":{"c":1,"h":8,"w":8},"layers":[{"kind":"maxpool","kernel":2,"stride":2}]}`
	if status, raw := postEvaluate(t, ts, `{"backend":"timely","spec":`+spec+`}`); status != http.StatusBadRequest {
		t.Errorf("evaluate: status = %d, body %s", status, raw)
	}
	if status, raw := post(t, ts, "/v1/networks", "application/json", spec); status != http.StatusBadRequest {
		t.Errorf("register: status = %d, body %s", status, raw)
	}
	if status, body, _ := get(t, ts, "/healthz", ""); status != http.StatusOK {
		t.Errorf("healthz after the rejected spec: status = %d, body %s", status, body)
	}
}

func TestRegisterNetworkEndpoint(t *testing.T) {
	ts := testServer(t)
	status, raw := post(t, ts, "/v1/networks", "application/json", tinySpecJSON("httpreg"))
	if status != http.StatusOK {
		t.Fatalf("register: status = %d, body %s", status, raw)
	}
	var info struct {
		Name   string `json:"name"`
		Layers int    `json:"layers"`
		MACs   int64  `json:"macs"`
		Params int64  `json:"params"`
		Hash   string `json:"hash"`
	}
	if err := json.Unmarshal([]byte(raw), &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "httpreg" || info.Layers != 3 || info.MACs <= 0 || info.Hash == "" {
		t.Errorf("info = %+v", info)
	}

	// The registered network now evaluates by name.
	status, raw = postEvaluate(t, ts, `{"backend":"prime","network":"httpreg"}`)
	if status != http.StatusOK {
		t.Fatalf("evaluate registered: status = %d, body %s", status, raw)
	}

	// Idempotent re-registration; conflicting redefinition is 409.
	status, _ = post(t, ts, "/v1/networks", "application/json", tinySpecJSON("httpreg"))
	if status != http.StatusOK {
		t.Errorf("idempotent re-register: status = %d", status)
	}
	conflict := strings.Replace(tinySpecJSON("httpreg"), `"filters": 16`, `"filters": 8`, 1)
	status, raw = post(t, ts, "/v1/networks", "application/json", conflict)
	if status != http.StatusConflict {
		t.Errorf("conflict: status = %d, body %s", status, raw)
	}
	errorBody(t, raw)

	// Invalid specs are 400 with the offending field named.
	status, raw = post(t, ts, "/v1/networks", "application/json",
		`{"name":"httpbad","input":{"c":0,"h":4,"w":4},"layers":[{"kind":"fc","units":1}]}`)
	if status != http.StatusBadRequest {
		t.Errorf("invalid: status = %d", status)
	}
	errorBody(t, raw)

	// The index lists both zoo and custom entries.
	status, raw, _ = get(t, ts, "/v1/networks", "")
	if status != http.StatusOK {
		t.Fatalf("index: status = %d", status)
	}
	var idx struct {
		Zoo    []string `json:"zoo"`
		Custom []struct {
			Name string `json:"name"`
		} `json:"custom"`
	}
	if err := json.Unmarshal([]byte(raw), &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Zoo) != 15 {
		t.Errorf("zoo has %d entries", len(idx.Zoo))
	}
	found := false
	for _, c := range idx.Custom {
		if c.Name == "httpreg" {
			found = true
		}
	}
	if !found {
		t.Errorf("custom index %+v missing httpreg", idx.Custom)
	}
}

// TestPostBodyHardening pins the shared POST contract: non-JSON content
// types get 415 and oversized bodies get 413 on every mutation endpoint.
func TestPostBodyHardening(t *testing.T) {
	ts := testServer(t)
	for _, path := range []string{"/v1/evaluate", "/v1/networks"} {
		status, raw := post(t, ts, path, "text/xml", `<spec/>`)
		if status != http.StatusUnsupportedMediaType {
			t.Errorf("%s xml: status = %d, want 415", path, status)
		}
		errorBody(t, raw)

		status, raw = post(t, ts, path, "application/x-www-form-urlencoded", "backend=timely")
		if status != http.StatusUnsupportedMediaType {
			t.Errorf("%s form: status = %d, want 415", path, status)
		}
		errorBody(t, raw)

		// An absent Content-Type is rejected too — the contract is
		// explicit application/json, not "anything parseable".
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(`{"backend":"timely"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Del("Content-Type")
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("%s no content type: status = %d, want 415", path, resp.StatusCode)
		}
		errorBody(t, string(body))

		// A charset parameter on the JSON media type is fine (but the
		// payload here is junk, so decoding fails with 400).
		status, _ = post(t, ts, path, "application/json; charset=utf-8", `{"bogus":`)
		if status != http.StatusBadRequest {
			t.Errorf("%s charset: status = %d, want 400", path, status)
		}

		// Oversized bodies are rejected, not read to completion.
		big := `{"pad": "` + strings.Repeat("x", 2<<20) + `"}`
		status, raw = post(t, ts, path, "application/json", big)
		if status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s big: status = %d, want 413", path, status)
		}
		errorBody(t, raw)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := testServer(t)
	// GET on the POST-only endpoint and POST on a GET-only endpoint.
	status, _, _ := get(t, ts, "/v1/evaluate", "")
	if status != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/evaluate status = %d, want 405", status)
	}
	resp, err := ts.Client().Post(ts.URL+"/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz status = %d, want 405", resp.StatusCode)
	}
}

func TestExperimentIndexNegotiation(t *testing.T) {
	ts := testServer(t)
	status, body, ctype := get(t, ts, "/v1/experiments", "application/json")
	if status != http.StatusOK || !strings.Contains(ctype, "application/json") {
		t.Fatalf("json index: status %d, type %q", status, ctype)
	}
	var idx struct {
		Backends    []string `json:"backends"`
		Experiments []struct {
			ID    string `json:"id"`
			Paper string `json:"paper"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Experiments) < 10 {
		t.Errorf("index has %d entries", len(idx.Experiments))
	}
	if len(idx.Backends) < 5 {
		t.Errorf("index lists %d backends: %v", len(idx.Backends), idx.Backends)
	}
	status, body, ctype = get(t, ts, "/v1/experiments", "text/csv")
	if status != http.StatusOK || !strings.Contains(ctype, "text/csv") ||
		!strings.HasPrefix(body, "id,paper,description") {
		t.Errorf("csv index: status %d, type %q, body %q", status, ctype, body[:40])
	}
	status, body, ctype = get(t, ts, "/v1/experiments", "")
	if status != http.StatusOK || !strings.Contains(ctype, "text/plain") ||
		!strings.Contains(body, "table5") {
		t.Errorf("text index: status %d, type %q", status, ctype)
	}
	if !strings.Contains(body, "backends") || !strings.Contains(body, "timing") {
		t.Errorf("text index missing the backend inventory:\n%s", body)
	}
	// The query parameter overrides the Accept header.
	status, body, _ = get(t, ts, "/v1/experiments?format=json", "text/csv")
	if status != http.StatusOK || !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Errorf("format override ignored: %q", body[:40])
	}
	status, body, _ = get(t, ts, "/v1/experiments?format=yaml", "")
	if status != http.StatusBadRequest {
		t.Errorf("format=yaml: status %d, want 400", status)
	}
	errorBody(t, body)
}

func TestExperimentArtifact(t *testing.T) {
	ts := testServer(t)
	status, body, _ := get(t, ts, "/v1/experiments/table5", "")
	if status != http.StatusOK || !strings.Contains(body, "Table V") {
		t.Fatalf("text artifact: status %d, body %q", status, body)
	}
	status, body, _ = get(t, ts, "/v1/experiments/table5", "application/json")
	if status != http.StatusOK {
		t.Fatalf("json artifact: status %d", status)
	}
	var doc struct {
		ID     string `json:"id"`
		Tables []struct {
			Rows [][]string `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.ID != "table5" || len(doc.Tables) == 0 || len(doc.Tables[0].Rows) == 0 {
		t.Errorf("document = %+v", doc)
	}
	status, body, _ = get(t, ts, "/v1/experiments/table5?format=csv", "")
	if status != http.StatusOK || !strings.HasPrefix(body, "# Table V") {
		t.Errorf("csv artifact: status %d, body %q", status, body[:40])
	}
	status, body, _ = get(t, ts, "/v1/experiments/fig99", "")
	if status != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", status)
	}
	errorBody(t, body)
}

// TestExperimentSamplerParam: no request names a Monte-Carlo stream
// contract. An experiment answers 400 to any query parameter but format
// (?sampler= included, whatever its value) before computing anything, and
// an evaluate body carrying "sampler" is a 400 from the strict decoder.
func TestExperimentSamplerParam(t *testing.T) {
	ts := testServer(t)
	for _, q := range []string{"sampler=v3", "sampler=v1", "sampler=", "foo=1", "format=csv&sampler=v3"} {
		status, body, _ := get(t, ts, "/v1/experiments/ablation?"+q, "")
		if status != http.StatusBadRequest {
			t.Errorf("?%s: status %d, want 400", q, status)
			continue
		}
		if msg := errorBody(t, body); !strings.Contains(msg, "unknown query parameters") {
			t.Errorf("?%s: error %q does not name the unknown parameter", q, msg)
		}
	}
	_, def, _ := get(t, ts, "/v1/experiments/table5", "text/csv")
	if status, body, _ := get(t, ts, "/v1/experiments/table5?format=csv", ""); status != http.StatusOK || body != def {
		t.Errorf("format=csv: status %d, bytes changed=%v", status, body != def)
	}
	for _, v := range []string{"v3", "v1", ""} {
		status, body := postEvaluate(t, ts, `{"backend":"functional","network":"mlp","trials":1,"sampler":"`+v+`"}`)
		if status != http.StatusBadRequest || !strings.Contains(errorBody(t, body), `unknown field "sampler"`) {
			t.Errorf("evaluate with sampler %q: status %d, body %s; want the unknown-field 400", v, status, body)
		}
	}
}

// TestConcurrentRequests exercises the memoized caches and the worker pool
// from many goroutines at once; run with -race this is the service's
// concurrency-safety proof.
func TestConcurrentRequests(t *testing.T) {
	ts := testServer(t)
	paths := []string{
		"/v1/experiments/table5",
		"/v1/experiments/fig10",
		"/v1/experiments/table5?format=csv",
		"/v1/experiments",
		"/healthz",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		for _, p := range paths {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				resp, err := ts.Client().Get(ts.URL + p)
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				if _, err := io.ReadAll(resp.Body); err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", p, resp.StatusCode)
				}
			}(p)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"backend":"timely","network":"CNN-1","chips":%d}`, 1+i%3)
			resp, err := ts.Client().Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("evaluate: status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRequestTimeout proves an expired compute budget aborts the run and
// surfaces as a gateway timeout (phase "compute") rather than hanging the
// handler.
func TestRequestTimeout(t *testing.T) {
	cfg := quietConfig()
	cfg.ExperimentTimeout = time.Nanosecond
	ts := httptest.NewServer(newServer(cfg))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/experiments/table5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, body)
	}
	errorBody(t, string(body))
	var e struct {
		Phase string `json:"phase"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Phase != "compute" {
		t.Errorf("phase = %q, want compute (body %s)", e.Phase, body)
	}
}

// TestClientDisconnectCancelsRun proves a dropped connection cancels the
// in-flight computation context, and that the outcome is accounted as
// client-gone (nginx-style 499 in the access log) — NOT as a shed or a
// server error, so overload accounting stays honest.
func TestClientDisconnectCancelsRun(t *testing.T) {
	var logBuf bytes.Buffer
	cfg := quietConfig()
	cfg.Logger = log.New(&logBuf, "", 0)
	s := newServer(cfg)
	req := httptest.NewRequest(http.MethodGet, "/v1/experiments/table5", nil)
	ctx, cancel := context.WithCancel(req.Context())
	cancel() // client already gone
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req.WithContext(ctx))
	if rec.Body.Len() != 0 {
		t.Errorf("wrote %q to a disconnected client", rec.Body.String())
	}
	logLine := logBuf.String()
	if !strings.Contains(logLine, "status=499") || !strings.Contains(logLine, "outcome=client_gone") {
		t.Errorf("access log %q missing 499/client_gone", logLine)
	}
	if got := s.metrics.ClientGone.Load(); got != 1 {
		t.Errorf("ClientGone = %d, want 1", got)
	}
	if got := s.metrics.Shed(); got != 0 {
		t.Errorf("Shed = %d, want 0 — client disconnects must not count as shed", got)
	}
}
