package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// testPeer spins up an httptest server and returns its host:port plus
// the server for shaping responses.
func testPeer(t *testing.T, handler http.HandlerFunc) (string, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host, ts
}

// testCluster builds a two-replica cluster view from self's perspective
// with probing disabled (tests drive the breaker through forwards).
func testCluster(t *testing.T, self, peer string) *Cluster {
	t.Helper()
	c, err := New(Config{
		Self:          self,
		Peers:         []string{self, peer},
		ProbeInterval: -1,
		Cooldown:      50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestNewValidation pins the misconfigurations New refuses.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Peers: []string{"a:1"}}); err == nil {
		t.Error("missing Self accepted")
	}
	if _, err := New(Config{Self: "b:2", Peers: []string{"a:1", "c:3"}}); err == nil {
		t.Error("Self absent from Peers accepted")
	}
	c, err := New(Config{Self: "a:1", Peers: []string{"a:1"}})
	if err != nil {
		t.Fatalf("single-replica cluster rejected: %v", err)
	}
	if owner, fwd := c.Route("anything", 0); fwd || owner != "a:1" {
		t.Errorf("single replica Route = (%q, %t), want (a:1, false)", owner, fwd)
	}
}

// TestForwardPassesResponseVerbatim: status, headers (Retry-After,
// Cache-Status) and body cross the proxy hop unchanged, and the hop
// header increments on the forwarded request.
func TestForwardPassesResponseVerbatim(t *testing.T) {
	var gotHop, gotCT, gotBody string
	peer, _ := testPeer(t, func(w http.ResponseWriter, r *http.Request) {
		gotHop = r.Header.Get(HopHeader)
		gotCT = r.Header.Get("Content-Type")
		raw, _ := io.ReadAll(r.Body)
		gotBody = string(raw)
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Cache-Status", "hit")
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":"admission queue full","phase":"queue"}`+"\n")
	})
	c := testCluster(t, "self:1", peer)

	body := `{"backend":"timely","network":"CNN-1"}`
	req := httptest.NewRequest(http.MethodPost, "/v1/evaluate?x=1", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	kept, err := c.Forward(rec, req, peer, []byte(body))
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if kept != nil {
		t.Errorf("Forward returned a body for a 429: %q", kept)
	}
	if gotHop != "1" || gotCT != "application/json" || gotBody != body {
		t.Errorf("forwarded request: hop=%q ct=%q body=%q", gotHop, gotCT, gotBody)
	}
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want 7", ra)
	}
	if cs := rec.Header().Get("Cache-Status"); cs != "hit" {
		t.Errorf("Cache-Status = %q, want hit", cs)
	}
	if got := rec.Body.String(); got != `{"error":"admission queue full","phase":"queue"}`+"\n" {
		t.Errorf("body = %q not passed verbatim", got)
	}
	fwd, ferr, fol := c.Counters()
	if fwd != 1 || ferr != 0 || fol != 0 {
		t.Errorf("counters = (%d,%d,%d), want (1,0,0)", fwd, ferr, fol)
	}
	// A 429 is a live peer: the breaker stays closed.
	if st := c.BreakerState(peer); st != StateClosed {
		t.Errorf("breaker after 429 = %v, want closed", st)
	}
}

// TestForwardKeepsOwnerBody: whatever the owner answers reaches the
// client verbatim — status, headers, bytes — and Forward hands back the
// body only for a 200 that fits MaxKeptBody.
func TestForwardKeepsOwnerBody(t *testing.T) {
	small := `{"backend": "timely", "elapsed_ms": 0.25}` + "\n"
	big := strings.Repeat("x", MaxKeptBody+1)
	for _, tc := range []struct {
		name   string
		status int
		body   string
		kept   bool
	}{
		{"200 within cap", http.StatusOK, small, true},
		{"200 at cap", http.StatusOK, big[:MaxKeptBody], true},
		{"200 past cap", http.StatusOK, big, false},
		{"400", http.StatusBadRequest, `{"error":"unknown network"}` + "\n", false},
		{"429", http.StatusTooManyRequests, `{"error":"admission queue full"}` + "\n", false},
		{"500", http.StatusInternalServerError, `{"error":"boom"}` + "\n", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peer, _ := testPeer(t, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Cache-Status", "miss")
				w.Header().Set(ServedByHeader, "owner:9")
				w.WriteHeader(tc.status)
				io.WriteString(w, tc.body)
			})
			c := testCluster(t, "self:1", peer)
			req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader("{}"))
			rec := httptest.NewRecorder()
			kept, err := c.Forward(rec, req, peer, []byte("{}"))
			if err != nil {
				t.Fatalf("Forward: %v", err)
			}
			if rec.Code != tc.status || rec.Body.String() != tc.body {
				t.Errorf("client got status %d, %d bytes; want %d, %d bytes verbatim",
					rec.Code, rec.Body.Len(), tc.status, len(tc.body))
			}
			if rec.Header().Get("Cache-Status") != "miss" || rec.Header().Get(ServedByHeader) != "owner:9" {
				t.Errorf("owner headers not passed through: %v", rec.Header())
			}
			switch {
			case tc.kept && string(kept) != tc.body:
				t.Errorf("kept %d bytes, want the owner's %d", len(kept), len(tc.body))
			case !tc.kept && kept != nil:
				t.Errorf("kept %d bytes of a response that must not be kept", len(kept))
			}
		})
	}
}

// TestForwardTransportFailureTripsBreaker: three forwards against a
// dead peer open its breaker, after which Route stops offering the
// forward (failover_local counts each skip).
func TestForwardTransportFailureTripsBreaker(t *testing.T) {
	peer, ts := testPeer(t, func(w http.ResponseWriter, r *http.Request) {})
	ts.Close() // the peer is a corpse from the start
	c := testCluster(t, "self:1", peer)

	// Find a key the dead peer owns.
	key := ""
	for k := 0; k < 1000; k++ {
		cand := fmt.Sprintf("key-%d", k)
		if c.Owner(cand) == peer {
			key = cand
			break
		}
	}
	if key == "" {
		t.Fatal("no key owned by peer in 1000 tries")
	}
	for i := 1; i <= 3; i++ {
		owner, fwd := c.Route(key, 0)
		if !fwd || owner != peer {
			t.Fatalf("attempt %d: Route = (%q, %t), want forward to peer", i, owner, fwd)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader("{}"))
		if kept, err := c.Forward(httptest.NewRecorder(), req, owner, []byte("{}")); err == nil || kept != nil {
			t.Fatalf("attempt %d: Forward to dead peer = (%q, %v), want (nil, error)", i, kept, err)
		}
	}
	if st := c.BreakerState(peer); st != StateOpen {
		t.Fatalf("breaker after 3 transport failures = %v, want open", st)
	}
	if _, fwd := c.Route(key, 0); fwd {
		t.Error("Route still forwards with the breaker open")
	}
	fwd, ferr, fol := c.Counters()
	if fwd != 0 || ferr != 3 || fol != 4 { // 3 failed forwards + 1 breaker skip
		t.Errorf("counters = (%d,%d,%d), want (0,3,4)", fwd, ferr, fol)
	}
}

// TestRouteHopBound: a request that already crossed MaxHops is computed
// locally no matter who owns its key — the no-routing-loop guarantee.
func TestRouteHopBound(t *testing.T) {
	peer, _ := testPeer(t, func(w http.ResponseWriter, r *http.Request) {})
	c := testCluster(t, "self:1", peer)
	key := ""
	for k := 0; k < 1000; k++ {
		cand := fmt.Sprintf("key-%d", k)
		if c.Owner(cand) == peer {
			key = cand
			break
		}
	}
	if _, fwd := c.Route(key, 0); !fwd {
		t.Fatal("fresh request not forwarded to healthy owner")
	}
	if _, fwd := c.Route(key, MaxHops); fwd {
		t.Error("request at the hop bound was forwarded again")
	}
	if _, _, fol := c.Counters(); fol != 0 {
		t.Errorf("hop-bound local serve counted as failover (%d)", fol)
	}
}

// TestHopsParsing: absent, malformed and negative headers read as 0.
func TestHopsParsing(t *testing.T) {
	for header, want := range map[string]int{"": 0, "junk": 0, "-3": 0, "1": 1, "2": 2} {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		if header != "" {
			r.Header.Set(HopHeader, header)
		}
		if got := Hops(r); got != want {
			t.Errorf("Hops(%q) = %d, want %d", header, got, want)
		}
	}
}

// TestProbesRecoverBreaker: a peer that dies and revives is first
// opened by failing probes, then re-closed by a healthy one — without
// any forwarded traffic.
func TestProbesRecoverBreaker(t *testing.T) {
	healthy := make(chan bool, 1)
	healthy <- false
	var state bool
	peer, _ := testPeer(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case state = <-healthy:
		default:
		}
		if !state {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	c, err := New(Config{
		Self:             "self:1",
		Peers:            []string{"self:1", peer},
		ProbeInterval:    10 * time.Millisecond,
		ProbeTimeout:     time.Second,
		FailureThreshold: 3,
		Cooldown:         time.Hour, // recovery must come from probes, not cooldown
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Start(ctx)
	defer c.Close()

	waitState := func(want State) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if c.BreakerState(peer) == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("breaker never reached %v (at %v)", want, c.BreakerState(peer))
	}
	waitState(StateOpen) // unready probes trip it
	healthy <- true
	waitState(StateClosed) // one healthy probe closes it
}
