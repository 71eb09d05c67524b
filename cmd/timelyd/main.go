// Command timelyd serves the TIMELY reproduction's evaluation capabilities
// over HTTP — the traffic-facing face of the public sim facade.
//
// Endpoints:
//
//	GET  /healthz               pure liveness, backend and experiment inventory
//	GET  /readyz                routability: 503 while draining or saturated
//	GET  /metricz               service counters (admission, shed, deadline, panics)
//	POST /v1/evaluate           run one sim.EvalRequest, returns sim.EvalResult
//	POST /v1/networks           validate + register a custom network spec
//	GET  /v1/networks           list zoo and registered custom networks
//	GET  /v1/experiments        the experiment index
//	GET  /v1/experiments/{id}   regenerate one paper artifact
//
// /v1/evaluate accepts either a network name — a Table III benchmark or a
// previously registered custom network — or an inline declarative spec
// under "spec" (sim.NetworkSpec: name, input dims, conv/fc/pool layers),
// which is compiled, validated and evaluated in one call. POST bodies must
// be application/json (415 otherwise), at most 1 MiB (413 otherwise), and
// exactly one JSON value (400 on trailing content). A body repeated byte
// for byte whose answer is still cached is answered without being decoded
// again (/metricz decode_skipped); see DESIGN.md "Body memo".
//
// The experiment endpoints negotiate their representation: JSON for
// Accept: application/json, CSV for Accept: text/csv, aligned text
// otherwise; a ?format=text|csv|json query parameter overrides. Errors are
// JSON bodies of the form {"error": "...", "phase": "queue"|"compute"}.
//
// Robustness model (see DESIGN.md "Service robustness"): compute
// endpoints (/v1/evaluate, /v1/experiments/{id}) pass a bounded admission
// queue — at most -max-concurrent requests compute at once, at most
// -queue-depth wait, nobody waits longer than -queue-wait — and shed with
// 429/503 plus a Retry-After header beyond that. Each compute class has a
// deadline budget (-evaluate-timeout, -timeout) covering queue wait AND
// compute; the error body's "phase" says where the time died. Cheap
// endpoints (health/ready/metrics, indexes, registration) bypass the
// queue so liveness never waits behind compute. Handler panics become
// logged 500s, not process crashes. The -chaos flag injects deterministic
// per-route latency/errors/panics for rehearsing all of the above
// (rule syntax: route=/v1/evaluate,latency=50ms,error=3,panic=7).
//
// Serving-side batching (see DESIGN.md "Cross-request batching & result
// cache"): /v1/evaluate responses are cached in an LRU keyed by the
// request's cache key (spec hash + design options + seed); byte-identical
// concurrent requests compute once and fan out (singleflight); compatible
// requests differing only in seed gather for -batch-window (or until
// -batch-max) and execute as ONE fused group evaluation under ONE
// admission slot. Every evaluate response carries a Cache-Status header:
// hit, miss or coalesced.
//
// Cluster mode (see DESIGN.md "Cluster mode"): -peers lists every
// replica's host:port (identically on every replica) and -self names
// this one's entry in that list. Each replica builds the same
// consistent-hash ring over the evaluate batch keyspace, so identical
// specs always land on the same replica and its result cache and
// singleflight pay off fleet-wide. A request owned by a healthy peer is
// proxied there (one hop at most — the X-Timely-Hop header bounds
// forwarding, so routing cannot loop) and the owner's response passes
// back verbatim, shed statuses and Retry-After included; the entry
// replica keeps a copy of a 200 that cannot depend on its network
// registry and answers repeats of that body itself. Per-peer
// circuit breakers — fed by forward failures and background /readyz
// probes every -probe-interval — open after repeated failures, after
// which owned-elsewhere requests are computed locally (failover) until
// the peer recovers. /metricz exposes forwarded, forward_errors,
// failover_local, cache_hits_peer_owned and per-peer breaker states.
//
// Flags:
//
//	-addr <host:port>        listen address (default :8080)
//	-par N                   worker budget per experiment request (default GOMAXPROCS)
//	-timeout <dur>           experiment deadline class (default 2m; 0 = none)
//	-evaluate-timeout <dur>  evaluate deadline class (default 30s; 0 = none)
//	-max-concurrent N        compute slots (default -par)
//	-queue-depth N           bounded wait queue (default 8×max-concurrent)
//	-queue-wait <dur>        max time queued before shedding (default 10s)
//	-chaos <spec>            deterministic fault injection (default off)
//	-batch-window <dur>      evaluate batching gather window (default 2ms; 0 = no gathering)
//	-batch-max N             max requests fused into one evaluate batch (default 32)
//	-cache-entries N         evaluate result cache and body memo size (default 4096; 0 = off)
//	-coalesce                singleflight+batching on /v1/evaluate (default true)
//	-peers <a,b,c>           every replica's host:port, self included (default standalone)
//	-self <host:port>        this replica's entry in -peers (required with -peers)
//	-probe-interval <dur>    per-peer /readyz probe spacing (default 1s; 0 = no probes)
//
// Identical heavy inputs (benchmark networks, baseline evaluations,
// trained classifiers) are memoized process-wide, so concurrent requests
// for the same artifact compute it once. On SIGINT/SIGTERM the process
// drains: /readyz flips to 503, new compute requests shed, and in-flight
// requests get a 10 s grace period to finish.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	par := flag.Int("par", runtime.GOMAXPROCS(0), "worker budget per experiment request")
	timeout := flag.Duration("timeout", 2*time.Minute, "experiment deadline class: queue wait + compute (0 = none)")
	evalTimeout := flag.Duration("evaluate-timeout", 30*time.Second, "evaluate deadline class: queue wait + compute (0 = none)")
	maxConc := flag.Int("max-concurrent", 0, "compute requests admitted at once (default -par)")
	queueDepth := flag.Int("queue-depth", 0, "compute requests queued beyond that before 429s (default 8x max-concurrent)")
	queueWait := flag.Duration("queue-wait", 10*time.Second, "max time a request may queue before shedding with 503")
	chaosSpec := flag.String("chaos", "", "deterministic fault injection rules, e.g. route=/v1/evaluate,latency=50ms,error=3,panic=7")
	batchWindow := flag.Duration("batch-window", 2*time.Millisecond, "evaluate batching gather window (0 = fire immediately)")
	batchMax := flag.Int("batch-max", 32, "max requests fused into one evaluate batch")
	cacheEntries := flag.Int("cache-entries", 4096, "evaluate result cache entries (0 = cache off)")
	coalesce := flag.Bool("coalesce", true, "singleflight de-dup + batching on /v1/evaluate")
	peers := flag.String("peers", "", "comma-separated host:port of every replica, self included (empty = standalone)")
	self := flag.String("self", "", "this replica's entry in -peers (required with -peers)")
	probeInterval := flag.Duration("probe-interval", time.Second, "per-peer /readyz probe spacing (0 = no probes)")
	flag.Parse()

	chaos, err := serve.ParseChaos(*chaosSpec)
	if err != nil {
		log.Fatalf("timelyd: %v", err)
	}
	var clu *cluster.Cluster
	if *peers != "" {
		var addrs []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				addrs = append(addrs, p)
			}
		}
		// The serverConfig-style 0-disables spelling maps onto the
		// cluster config's negative-disables one.
		interval := *probeInterval
		if interval <= 0 {
			interval = -1
		}
		clu, err = cluster.New(cluster.Config{
			Self:          *self,
			Peers:         addrs,
			ProbeInterval: interval,
			Logger:        log.Default(),
		})
		if err != nil {
			log.Fatalf("timelyd: %v", err)
		}
	} else if *self != "" {
		log.Fatalf("timelyd: -self given without -peers")
	}
	// The serverConfig encodes "explicitly disabled" as negative (its 0
	// means "default"); the flags use the friendlier 0-disables spelling.
	window := *batchWindow
	if window <= 0 {
		window = -1
	}
	entries := *cacheEntries
	if entries <= 0 {
		entries = -1
	}
	srv := newServer(serverConfig{
		Par:               *par,
		EvaluateTimeout:   *evalTimeout,
		ExperimentTimeout: *timeout,
		MaxConcurrent:     *maxConc,
		QueueDepth:        *queueDepth,
		MaxQueueWait:      *queueWait,
		BatchWindow:       window,
		BatchMax:          *batchMax,
		CacheEntries:      entries,
		NoCoalesce:        !*coalesce,
		Chaos:             chaos,
		Cluster:           clu,
	})
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if clu != nil {
		clu.Start(ctx)
		log.Printf("timelyd: cluster mode, self=%s peers=%s probe-interval=%s",
			clu.Self(), strings.Join(clu.Peers(), ","), *probeInterval)
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	conc, depth := srv.limiter.Capacity()
	log.Printf("timelyd: listening on %s (par=%d, max-concurrent=%d, queue-depth=%d, queue-wait=%s, timeout=%s, evaluate-timeout=%s, batch-window=%s, batch-max=%d, cache-entries=%d, coalesce=%t, chaos=%s)",
		*addr, srv.cfg.Par, conc, depth, srv.cfg.MaxQueueWait,
		srv.cfg.ExperimentTimeout, srv.cfg.EvaluateTimeout,
		*batchWindow, srv.cfg.BatchMax, *cacheEntries, *coalesce, chaos)

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("timelyd: %v", err)
		}
	case <-ctx.Done():
		stop()
		// Drain: readiness goes 503 so balancers route away, new compute
		// requests shed immediately, in-flight ones get the grace period.
		srv.StartDrain()
		log.Printf("timelyd: signal received, draining in-flight requests")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("timelyd: forced close after grace period: %v", err)
			hs.Close()
		}
	}
	log.Printf("timelyd: bye")
}
