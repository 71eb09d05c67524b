package main

// Sharded cluster mode: 3-replica fleets on loopback listeners, proving
// the routing invariants the ISSUE gates on — byte-identical responses
// through any entry replica (par 1/2/8), hop-bounded forwarding (no
// routing loops), verbatim shed pass-through, and kill-one failover
// where survivors absorb the dead replica's keyspace by computing
// locally until its breaker re-closes.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/sim"
)

type replica struct {
	addr string
	srv  *server
	hs   *http.Server
}

// clusterOptions shapes one test fleet.
type clusterOptions struct {
	// mutate adjusts replica i's server config (nil = quietConfig).
	mutate func(i int, cfg *serverConfig)
	// cooldown is the breaker cooldown (default 1h: no half-open
	// surprises unless the test wants them).
	cooldown time.Duration
}

// startCluster boots n replicas sharing one consistent-hash ring, each
// on its own loopback listener. Probing is disabled — the tests drive
// breakers deterministically through forwarded traffic.
func startCluster(t *testing.T, n int, opts clusterOptions) []*replica {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	cooldown := opts.cooldown
	if cooldown == 0 {
		cooldown = time.Hour
	}
	reps := make([]*replica, n)
	for i := range reps {
		cfg := quietConfig()
		if opts.mutate != nil {
			opts.mutate(i, &cfg)
		}
		clu, err := cluster.New(cluster.Config{
			Self:          addrs[i],
			Peers:         addrs,
			ProbeInterval: -1,
			Cooldown:      cooldown,
			Client:        &http.Client{Timeout: 5 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cluster = clu
		reps[i] = startReplica(t, lns[i], cfg)
	}
	return reps
}

// startReplica serves cfg on ln and registers cleanup.
func startReplica(t *testing.T, ln net.Listener, cfg serverConfig) *replica {
	t.Helper()
	s := newServer(cfg)
	hs := &http.Server{Handler: s}
	go hs.Serve(ln)
	r := &replica{addr: ln.Addr().String(), srv: s, hs: hs}
	t.Cleanup(func() { hs.Close() })
	return r
}

// clusterPost sends body to the replica's /v1/evaluate with optional
// extra headers and returns status, response headers and body.
func clusterPost(t *testing.T, addr, body string, hdr map[string]string) (int, http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/evaluate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", addr, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(raw)
}

// batchKeyOf derives the routing key exactly as handleEvaluate does on
// entry replica e: a name e's registry holds keys as its spec.
func batchKeyOf(t *testing.T, e *replica, body string) string {
	t.Helper()
	var req sim.EvalRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	if err := e.srv.networks.Resolve(&req); err != nil {
		t.Fatal(err)
	}
	_, batchKey, err := req.Keys()
	if err != nil {
		t.Fatal(err)
	}
	return batchKey
}

// bodyOwnedBy hunts for an analytic evaluate body whose batch key the
// given replica owns.
func bodyOwnedBy(t *testing.T, reps []*replica, owner int) string {
	t.Helper()
	return bodiesOwnedBy(t, reps, owner, `{"backend":"timely","network":"CNN-1","chips":%d}`, 1)[0]
}

// bodiesOwnedBy hunts for n distinct evaluate bodies whose batch keys the
// given replica owns, filling format's one %d verb with a chip count
// (varying the chip count varies the key). Names resolve as on entry
// replica 0.
func bodiesOwnedBy(t *testing.T, reps []*replica, owner int, format string, n int) []string {
	t.Helper()
	clu := reps[0].srv.cfg.Cluster
	var out []string
	for chips := 1; chips <= 512 && len(out) < n; chips++ {
		body := fmt.Sprintf(format, chips)
		if clu.Owner(batchKeyOf(t, reps[0], body)) == reps[owner].addr {
			out = append(out, body)
		}
	}
	if len(out) < n {
		t.Fatalf("only %d of %d bodies owned by the target replica in 512 tries", len(out), n)
	}
	return out
}

// TestClusterByteIdenticalAcrossEntryReplicas is the acceptance gate:
// the same request, entering through ANY of the three replicas, yields
// byte-identical response bodies — at inner parallelism 1, 2 and 8.
// Routing makes this hold exactly: every entry replica proxies the key
// to its one owner, whose result cache freezes the response bytes
// (elapsed_ms included), so the wire bytes cannot depend on the entry
// point. Both analytic and functional (Monte-Carlo, where par changes
// the execution schedule but PR 6's determinism gates pin the output)
// requests are covered.
func TestClusterByteIdenticalAcrossEntryReplicas(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			reps := startCluster(t, 3, clusterOptions{
				mutate: func(i int, cfg *serverConfig) { cfg.Par = par },
			})
			bodies := []string{
				`{"backend":"timely","network":"CNN-1"}`,
				`{"backend":"timely","network":"VGG-D","chips":4}`,
				`{"backend":"prime","network":"SqueezeNet"}`,
				`{"backend":"isaac","network":"MLP-L"}`,
				`{"backend":"functional","network":"mlp","trials":2,"seed":7}`,
				`{"backend":"timely","network":"ResNet-152","gamma":16}`,
			}
			for _, body := range bodies {
				var bytes, served []string
				for _, rep := range reps {
					status, hdr, got := clusterPost(t, rep.addr, body, nil)
					if status != http.StatusOK {
						t.Fatalf("entry %s body %s: status %d (%s)", rep.addr, body, status, got)
					}
					bytes = append(bytes, got)
					served = append(served, hdr.Get(cluster.ServedByHeader))
				}
				for i := 1; i < 3; i++ {
					if bytes[i] != bytes[0] {
						t.Errorf("body %s: entry %d response differs from entry 0:\n%s\nvs\n%s",
							body, i, bytes[i], bytes[0])
					}
					if served[i] != served[0] {
						t.Errorf("body %s: served-by differs across entries: %v", body, served)
					}
				}
				if served[0] == "" {
					t.Errorf("body %s: no %s header", body, cluster.ServedByHeader)
				}
			}
		})
	}
}

// TestClusterRoutesToOwner pins the locality story: a request entering
// at a non-owner is answered by the owner (one forward), and repeating
// it through another non-owner hits the owner's result cache.
func TestClusterRoutesToOwner(t *testing.T) {
	reps := startCluster(t, 3, clusterOptions{})
	body := bodyOwnedBy(t, reps, 2)
	entries := []int{0, 1}

	status, hdr, _ := clusterPost(t, reps[entries[0]].addr, body, nil)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if got := hdr.Get(cluster.ServedByHeader); got != reps[2].addr {
		t.Fatalf("served by %q, want owner %s", got, reps[2].addr)
	}
	if cs := hdr.Get("Cache-Status"); cs != "miss" {
		t.Errorf("first request Cache-Status = %q, want miss", cs)
	}
	status, hdr, _ = clusterPost(t, reps[entries[1]].addr, body, nil)
	if status != http.StatusOK || hdr.Get(cluster.ServedByHeader) != reps[2].addr {
		t.Fatalf("second entry: status %d served by %q", status, hdr.Get(cluster.ServedByHeader))
	}
	if cs := hdr.Get("Cache-Status"); cs != "hit" {
		t.Errorf("same key via another entry: Cache-Status = %q, want hit (owner cache locality)", cs)
	}
	for _, i := range entries {
		if fwd, ferr, fol := reps[i].srv.cfg.Cluster.Counters(); fwd != 1 || ferr != 0 || fol != 0 {
			t.Errorf("entry %d counters = (%d,%d,%d), want (1,0,0)", i, fwd, ferr, fol)
		}
	}
}

// TestClusterHopBound proves the no-routing-loop invariant at the
// receiver: a request already carrying the hop bound is computed
// locally even though its key is owned elsewhere.
func TestClusterHopBound(t *testing.T) {
	reps := startCluster(t, 3, clusterOptions{})
	body := bodyOwnedBy(t, reps, 2)

	status, hdr, _ := clusterPost(t, reps[0].addr, body,
		map[string]string{cluster.HopHeader: fmt.Sprint(cluster.MaxHops)})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if got := hdr.Get(cluster.ServedByHeader); got != reps[0].addr {
		t.Errorf("hop-bounded request served by %q, want local %s", got, reps[0].addr)
	}
	if fwd, _, _ := reps[0].srv.cfg.Cluster.Counters(); fwd != 0 {
		t.Errorf("hop-bounded request was forwarded (%d)", fwd)
	}
}

// TestClusterShedPassThrough pins the forwarded error path: the owner
// sheds with 429 + Retry-After, and the client — talking only to the
// entry replica — sees the owner's status, Retry-After header and JSON
// body verbatim through the proxy hop.
func TestClusterShedPassThrough(t *testing.T) {
	const ownerIdx = 2
	var reps []*replica
	reps = startCluster(t, 3, clusterOptions{
		mutate: func(i int, cfg *serverConfig) {
			cfg.MaxConcurrent = 1
			cfg.QueueDepth = -1 // no queue: a busy slot sheds instantly
			if i == ownerIdx {
				chaos, err := serve.ParseChaos("route=/v1/evaluate,latency=800ms")
				if err != nil {
					t.Fatal(err)
				}
				cfg.Chaos = chaos
			}
		},
	})
	victim := bodyOwnedBy(t, reps, ownerIdx)

	// Occupy the owner's only slot: a hop-bounded request computes
	// locally there and sits out the injected 800ms inside the slot.
	occupied := make(chan struct{})
	go func() {
		defer close(occupied)
		clusterPost(t, reps[ownerIdx].addr,
			`{"backend":"timely","network":"SqueezeNet","chips":97}`,
			map[string]string{cluster.HopHeader: fmt.Sprint(cluster.MaxHops)})
	}()
	time.Sleep(200 * time.Millisecond)

	status, hdr, body := clusterPost(t, reps[0].addr, victim, nil)
	<-occupied
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", status, body)
	}
	if ra := hdr.Get("Retry-After"); ra != "5" {
		t.Errorf("Retry-After = %q, want 5 (half the 10s default queue wait, passed verbatim)", ra)
	}
	var e struct {
		Error       string `json:"error"`
		Phase       string `json:"phase"`
		RetryAfterS int    `json:"retry_after_s"`
	}
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("shed body %q is not JSON: %v", body, err)
	}
	if !strings.Contains(e.Error, "admission queue full") || e.Phase != "queue" || e.RetryAfterS != 5 {
		t.Errorf("shed body = %+v, want the owner's uniform queue-full shed", e)
	}
	if fwd, ferr, _ := reps[0].srv.cfg.Cluster.Counters(); fwd != 1 || ferr != 0 {
		t.Errorf("entry counters = (fwd %d, err %d), want (1, 0): a shed is a forward, not a failure", fwd, ferr)
	}
	// A 429 came from a LIVE owner: the entry's breaker must stay closed.
	if st := reps[0].srv.cfg.Cluster.BreakerState(reps[ownerIdx].addr); st != cluster.StateClosed {
		t.Errorf("breaker after passed-through shed = %v, want closed", st)
	}
}

// TestClusterEntryCache pins the entry replica's hot cache: the owner's
// answer is kept where the request entered and replayed byte for byte
// (elapsed_ms included) without another hop — even once the owner is gone.
// A registered name resolves on the entry, so its answer is kept the same
// way; an unknown name is answered at the entry and never kept.
func TestClusterEntryCache(t *testing.T) {
	const ownerIdx = 2
	reps := startCluster(t, 3, clusterOptions{})
	entry, owner := reps[0], reps[ownerIdx]
	clu := entry.srv.cfg.Cluster
	body := bodyOwnedBy(t, reps, ownerIdx)

	status, hdr, first := clusterPost(t, entry.addr, body, nil)
	if status != http.StatusOK || hdr.Get(cluster.ServedByHeader) != owner.addr || hdr.Get("Cache-Status") != "miss" {
		t.Fatalf("first: status %d served by %q cache %q", status,
			hdr.Get(cluster.ServedByHeader), hdr.Get("Cache-Status"))
	}
	status, hdr, second := clusterPost(t, entry.addr, body, nil)
	if status != http.StatusOK || second != first {
		t.Fatalf("repeat: status %d, bytes differ from the owner's answer:\n%s\nvs\n%s", status, second, first)
	}
	if sb, cs := hdr.Get(cluster.ServedByHeader), hdr.Get("Cache-Status"); sb != entry.addr || cs != "hit" {
		t.Errorf("repeat served by %q cache %q, want %s hit", sb, cs, entry.addr)
	}
	if fwd, _, _ := clu.Counters(); fwd != 1 {
		t.Errorf("forwarded = %d after a replayed repeat, want 1", fwd)
	}
	if got := metricz(t, entry.addr)["cache_hits_peer_owned"]; got != 1 {
		t.Errorf("cache_hits_peer_owned = %d, want 1", got)
	}

	// A registered name is forwarded once, as its spec, and then kept.
	resp, err := http.Post("http://"+entry.addr+"/v1/networks", "application/json",
		strings.NewReader(tinySpecJSON("entry-cache-net")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	byName := bodiesOwnedBy(t, reps, 1, `{"backend":"timely","network":"entry-cache-net","chips":%d}`, 1)[0]
	before, _, _ := clu.Counters()
	for i, want := range []string{reps[1].addr, entry.addr} {
		status, hdr, got := clusterPost(t, entry.addr, byName, nil)
		if status != http.StatusOK || hdr.Get(cluster.ServedByHeader) != want {
			t.Errorf("by name #%d: status %d served by %q, want 200 from %s (%s)",
				i, status, hdr.Get(cluster.ServedByHeader), want, got)
		}
	}
	// An unknown name is a 400 from the entry itself, every time.
	for i := 0; i < 2; i++ {
		status, hdr, got := clusterPost(t, entry.addr, `{"backend":"timely","network":"never-registered"}`, nil)
		if status != http.StatusBadRequest || !strings.Contains(got, "unknown network") ||
			hdr.Get(cluster.ServedByHeader) != "" {
			t.Errorf("unknown name #%d: status %d served by %q (%s), want the entry's 400",
				i, status, hdr.Get(cluster.ServedByHeader), got)
		}
	}
	if after, _, _ := clu.Counters(); after != before+1 {
		t.Errorf("forwarded %d -> %d: want the by-name forward only", before, after)
	}

	// Concurrent first sightings of one body all get the owner's bytes,
	// and the copy the entry keeps is those bytes.
	burst := bodiesOwnedBy(t, reps, ownerIdx, `{"backend":"prime","network":"VGG-D","chips":%d}`, 1)[0]
	answers := make([]string, 8)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post("http://"+entry.addr+"/v1/evaluate", "application/json", strings.NewReader(burst))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			answers[i] = string(raw)
		}(i)
	}
	wg.Wait()
	_, hdr, kept := clusterPost(t, entry.addr, burst, nil)
	for i, a := range answers {
		if a != kept || hdr.Get("Cache-Status") != "hit" {
			t.Errorf("burst answer %d differs from the kept copy (cache %q)", i, hdr.Get("Cache-Status"))
		}
	}

	// With the owner gone, the kept answer still serves — no dial, so no
	// transport failure is booked. (Burst members that arrived after the
	// first kept copy were entry hits too, so count from here.)
	peerHits := metricz(t, entry.addr)["cache_hits_peer_owned"]
	owner.hs.Close()
	status, hdr, third := clusterPost(t, entry.addr, body, nil)
	if status != http.StatusOK || third != first || hdr.Get("Cache-Status") != "hit" {
		t.Errorf("after the owner died: status %d cache %q, bytes equal %t",
			status, hdr.Get("Cache-Status"), third == first)
	}
	if _, ferr, fol := clu.Counters(); ferr != 0 || fol != 0 {
		t.Errorf("forward_errors %d failover_local %d, want 0: the kept answer needs no dial", ferr, fol)
	}
	if got := metricz(t, entry.addr)["cache_hits_peer_owned"]; got != peerHits+1 {
		t.Errorf("cache_hits_peer_owned = %d, want %d", got, peerHits+1)
	}
}

// TestClusterRegistryIsReplicaLocal: a name registered on replica A
// resolves on A, so through A it answers for keys every replica owns —
// each owner evaluates the spec A forwards, with no registry of its own —
// while through B, which holds no such name, it is a 400 B answers itself.
func TestClusterRegistryIsReplicaLocal(t *testing.T) {
	reps := startCluster(t, 3, clusterOptions{})
	a, b := reps[0], reps[1]
	spec := tinySpecJSON("local-net")
	resp, err := http.Post("http://"+a.addr+"/v1/networks", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register on A: status %d", resp.StatusCode)
	}
	// The oracle: by-name evaluation through the package default registry.
	var oracleSpec sim.NetworkSpec
	if err := json.Unmarshal([]byte(spec), &oracleSpec); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RegisterNetwork(&oracleSpec); err != nil {
		t.Fatal(err)
	}

	format := `{"backend":"timely","network":"local-net","chips":%d}`
	for owner := range reps {
		body := bodiesOwnedBy(t, reps, owner, format, 1)[0]
		status, hdr, got := clusterPost(t, a.addr, body, nil)
		if status != http.StatusOK || hdr.Get(cluster.ServedByHeader) != reps[owner].addr {
			t.Fatalf("owner %d via A: status %d served by %q (%s)", owner, status, hdr.Get(cluster.ServedByHeader), got)
		}
		var req sim.EvalRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		res, err := sim.Evaluate(context.Background(), &req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if normElapsed(got) != normElapsed(string(want)+"\n") {
			t.Errorf("owner %d via A: body differs from sim.Evaluate by name:\n%s\nvs\n%s", owner, got, want)
		}
		if _, hdr, _ := clusterPost(t, a.addr, body, nil); hdr.Get("Cache-Status") != "hit" {
			t.Errorf("owner %d via A: repeat Cache-Status %q, want hit", owner, hdr.Get("Cache-Status"))
		}

		before, _, _ := b.srv.cfg.Cluster.Counters()
		status, _, got = clusterPost(t, b.addr, body, nil)
		if status != http.StatusBadRequest || !strings.Contains(got, "unknown network") {
			t.Errorf("owner %d via B: status %d (%s), want 400 unknown network", owner, status, got)
		}
		if after, _, _ := b.srv.cfg.Cluster.Counters(); after != before {
			t.Errorf("owner %d via B: forwarded %d -> %d, want no forward", owner, before, after)
		}
	}
}

// TestClusterEntryCacheSkipsShed: an owner's 429 passes through to the
// client and is not kept, so the next request for the key is forwarded
// again and answered by the owner.
func TestClusterEntryCacheSkipsShed(t *testing.T) {
	const ownerIdx = 2
	reps := startCluster(t, 3, clusterOptions{
		mutate: func(i int, cfg *serverConfig) {
			cfg.MaxConcurrent = 1
			cfg.QueueDepth = -1 // no queue: a busy slot sheds instantly
			if i == ownerIdx {
				chaos, err := serve.ParseChaos("route=/v1/evaluate,latency=500ms")
				if err != nil {
					t.Fatal(err)
				}
				cfg.Chaos = chaos
			}
		},
	})
	victim := bodyOwnedBy(t, reps, ownerIdx)

	// Occupy the owner's only slot with a hop-bounded local request.
	occupied := make(chan struct{})
	go func() {
		defer close(occupied)
		clusterPost(t, reps[ownerIdx].addr,
			`{"backend":"timely","network":"SqueezeNet","chips":97}`,
			map[string]string{cluster.HopHeader: fmt.Sprint(cluster.MaxHops)})
	}()
	time.Sleep(150 * time.Millisecond)
	status, _, body := clusterPost(t, reps[0].addr, victim, nil)
	<-occupied
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", status, body)
	}

	status, hdr, body := clusterPost(t, reps[0].addr, victim, nil)
	if status != http.StatusOK || hdr.Get(cluster.ServedByHeader) != reps[ownerIdx].addr {
		t.Fatalf("after the shed: status %d served by %q, want 200 from the owner (%s)",
			status, hdr.Get(cluster.ServedByHeader), body)
	}
	if fwd, _, _ := reps[0].srv.cfg.Cluster.Counters(); fwd != 2 {
		t.Errorf("forwarded = %d, want 2: the shed must not be replayed", fwd)
	}
}

// metricz fetches a replica's /metricz counters.
func metricz(t *testing.T, addr string) map[string]int64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]int64
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metricz %s: %v", raw, err)
	}
	return snap
}

// elapsedRe normalizes the one wall-clock field of an EvalResult body;
// everything else must be byte-identical between a forwarded response
// and a failover local recompute.
var elapsedRe = regexp.MustCompile(`"elapsed_ms": [0-9.e+-]+`)

// TestClusterKillOneFailover is the chaos acceptance scenario: with one
// of three replicas dead, survivors absorb its keyspace by computing
// locally — every request still answers 200 — the dead peer's breaker
// opens after the failure threshold, and once open the doomed dial is
// skipped entirely. A revived listener on the same address is re-found
// through the half-open trial.
//
// An entry replica replays answers it already holds without dialling the
// owner, so every request meant to reach the dead owner carries a body
// the entry has never answered: the healthy answer is fetched through
// another entry, and each request after the kill uses a fresh body.
func TestClusterKillOneFailover(t *testing.T) {
	const deadIdx = 2
	reps := startCluster(t, 3, clusterOptions{cooldown: 300 * time.Millisecond})
	bodies := bodiesOwnedBy(t, reps, deadIdx, `{"backend":"timely","network":"CNN-1","chips":%d}`, 6)
	clu := reps[0].srv.cfg.Cluster

	// The healthy answer to bodies[0] comes through entry 1, so entry 0's
	// cache stays cold for it; bodies[4] warms entry 0's route to the owner.
	status, hdr, healthyBody := clusterPost(t, reps[1].addr, bodies[0], nil)
	if status != http.StatusOK || hdr.Get(cluster.ServedByHeader) != reps[deadIdx].addr {
		t.Fatalf("healthy: status %d served by %q", status, hdr.Get(cluster.ServedByHeader))
	}
	status, hdr, _ = clusterPost(t, reps[0].addr, bodies[4], nil)
	if status != http.StatusOK || hdr.Get(cluster.ServedByHeader) != reps[deadIdx].addr {
		t.Fatalf("healthy via entry 0: status %d served by %q", status, hdr.Get(cluster.ServedByHeader))
	}

	reps[deadIdx].hs.Close()

	// The default failure threshold is 3: requests 1–3 discover the
	// corpse at transport level and fail over to local compute; request
	// 4 finds the breaker open and never dials.
	for i := 1; i <= 4; i++ {
		status, hdr, got := clusterPost(t, reps[0].addr, bodies[i-1], nil)
		if status != http.StatusOK {
			t.Fatalf("failover request %d: status %d (%s)", i, status, got)
		}
		if sb := hdr.Get(cluster.ServedByHeader); sb != reps[0].addr {
			t.Fatalf("failover request %d served by %q, want local %s", i, sb, reps[0].addr)
		}
		if cs := hdr.Get("Cache-Status"); cs != "miss" {
			t.Fatalf("failover request %d: Cache-Status %q, want miss (a fresh body)", i, cs)
		}
		// The failover answer carries the identical result payload —
		// only elapsed_ms (wall clock of whoever computed) may differ.
		if i == 1 {
			norm := func(s string) string { return elapsedRe.ReplaceAllString(s, `"elapsed_ms": X`) }
			if norm(got) != norm(healthyBody) {
				t.Errorf("failover result differs from the owner's beyond elapsed_ms:\n%s\nvs\n%s", got, healthyBody)
			}
		}
	}
	if st := clu.BreakerState(reps[deadIdx].addr); st != cluster.StateOpen {
		t.Fatalf("breaker after threshold transport failures = %v, want open", st)
	}
	fwd, ferr, fol := clu.Counters()
	if fwd != 1 || ferr != 3 || fol != 4 {
		t.Errorf("counters = (fwd %d, err %d, failover %d), want (1, 3, 4)", fwd, ferr, fol)
	}

	// /metricz on the survivor tells the same story, stable-keyed.
	snap := metricz(t, reps[0].addr)
	if snap["forwarded"] != 1 || snap["forward_errors"] != 3 || snap["failover_local"] != 4 {
		t.Errorf("metricz cluster counters = fwd %d err %d failover %d, want 1/3/4",
			snap["forwarded"], snap["forward_errors"], snap["failover_local"])
	}
	if got := snap["peer_breaker_state:"+reps[deadIdx].addr]; got != int64(cluster.StateOpen) {
		t.Errorf("metricz breaker state for dead peer = %d, want %d (open)", got, cluster.StateOpen)
	}
	if got := snap["peer_breaker_opens:"+reps[deadIdx].addr]; got != 1 {
		t.Errorf("metricz breaker opens for dead peer = %d, want 1", got)
	}

	// Revive the replica on the SAME address; after the cooldown the
	// entry's half-open trial re-discovers it and routing resumes. The
	// trial body is one entry 0 has not answered yet.
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		ln, err = net.Listen("tcp", reps[deadIdx].addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", reps[deadIdx].addr, err)
	}
	revived := startReplica(t, ln, reps[deadIdx].srv.cfg)
	time.Sleep(350 * time.Millisecond) // cooldown elapses

	status2, hdr2, _ := clusterPost(t, reps[0].addr, bodies[5], nil)
	if status2 != http.StatusOK || hdr2.Get(cluster.ServedByHeader) != revived.addr {
		t.Fatalf("after revival: status %d served by %q, want owner %s",
			status2, hdr2.Get(cluster.ServedByHeader), revived.addr)
	}
	if st := clu.BreakerState(revived.addr); st != cluster.StateClosed {
		t.Errorf("breaker after successful trial = %v, want closed", st)
	}
}
