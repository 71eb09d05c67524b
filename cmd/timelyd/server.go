package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"mime"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/batchq"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/sim"
)

// serverConfig sizes the robustness substrate around the request handler.
// The zero value of any field falls back to a sane default in newServer.
type serverConfig struct {
	// Par is the inner worker budget one experiment request may use.
	Par int
	// EvaluateTimeout is the deadline class for analytic evaluations
	// (POST /v1/evaluate): cheap closed-form work. 0 = unbounded.
	EvaluateTimeout time.Duration
	// ExperimentTimeout is the deadline class for artifact regeneration
	// (GET /v1/experiments/{id}): Monte-Carlo heavy. 0 = unbounded.
	ExperimentTimeout time.Duration
	// MaxConcurrent bounds compute requests holding workers at once;
	// defaults to Par (the limiter is sized off -par/GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth bounds compute requests waiting for a slot; beyond it
	// requests shed with 429. 0 means the default (8×MaxConcurrent);
	// negative means no queue at all (busy slots shed immediately).
	QueueDepth int
	// MaxQueueWait bounds how long one request may wait for a slot
	// before shedding with 503.
	MaxQueueWait time.Duration
	// Cluster optionally shards the evaluate keyspace across replicas:
	// a request whose batch key is owned by a healthy peer is proxied
	// there (see handleEvaluate). nil means standalone.
	Cluster *cluster.Cluster
	// Chaos optionally injects per-route latency/errors/panics (tests
	// and the -chaos flag).
	Chaos *serve.Chaos
	// Logger receives access lines, panic stacks and encode failures;
	// nil means log.Default().
	Logger *log.Logger
}

func (c *serverConfig) fillDefaults() {
	if c.Par < 1 {
		c.Par = 1
	}
	if c.MaxConcurrent < 1 {
		c.MaxConcurrent = c.Par
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 8 * c.MaxConcurrent
	}
	if c.MaxQueueWait == 0 {
		c.MaxQueueWait = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
}

// Evaluate batching sizes. evalBatchMax caps the distinct requests one
// group fuses; evalCacheEntries sizes the result cache and the body memo
// in front of it.
const (
	evalBatchMax     = 32
	evalCacheEntries = 4096
)

// server is the timelyd request handler. All of its state is read-only
// after construction except the atomic admission/drain state in the
// limiter and the metric counters; one instance serves concurrent
// requests. The heavy shared inputs behind it (benchmark networks,
// analytic baselines, trained classifiers) live in sync.Once-keyed caches
// that compute each value exactly once regardless of request concurrency.
type server struct {
	cfg       serverConfig
	mux       *http.ServeMux
	handler   http.Handler // the composed middleware chain
	limiter   *serve.Limiter
	metrics   *serve.Metrics
	logger    *log.Logger
	started   time.Time
	evalClass serve.Class
	// evalCache holds finished /v1/evaluate response bodies keyed by the
	// request's cache key; evalQueue coalesces in-flight evaluations
	// (singleflight on the cache key, cross-request batching on the batch
	// key). See handleEvaluate.
	evalCache *batchq.Cache[[]byte]
	evalQueue *batchq.Queue[*evalJob, evalResult]
	// bodyKeys memoizes the keys of evaluate bodies by the SHA-256 digest
	// of their raw bytes, so a repeated body is answered from evalCache
	// without being decoded or keyed again.
	bodyKeys *batchq.Cache[evalKeys]
	// networks is this replica's custom-network registry (POST
	// /v1/networks); evaluate requests resolve names against it.
	networks sim.Registry
	// peerOwnedHits counts cache hits on keys another replica owns
	// (/metricz cache_hits_peer_owned).
	peerOwnedHits atomic.Int64
	// decodeSkipped counts evaluate requests answered through bodyKeys
	// (/metricz decode_skipped).
	decodeSkipped atomic.Int64
}

// evalKeys is a decoded evaluate request's identity: its result-cache key
// and its batch (routing) key, as sim.(*EvalRequest).Keys derives them.
type evalKeys struct {
	cacheKey, batchKey string
}

// evalJob is the unit the batching queue carries: a decoded request with
// its name resolved, its keys and the body a forward sends.
type evalJob struct {
	req *sim.EvalRequest
	evalKeys
	body []byte
}

// evalResult is what the group executor hands each waiter of a job: the
// finished response body and how long the group waited for its admission
// slot, which the waiter's access-log line reports as wait_ms.
type evalResult struct {
	body []byte
	wait time.Duration
}

// newServer wires the handler chain:
//
//	AccessLog → Recover → mux → [experiment: Admit → Chaos → handler]
//	                          → [evaluate:   ChaosFaults → handler → batchq → group executor]
//	                          → [cheap:      Chaos → handler]
//
// Cheap endpoints (/healthz, /readyz, /metricz, the network and
// experiment indexes, network registration) never queue behind compute,
// so liveness and inventory stay responsive under full load. The
// experiment endpoint passes classic per-request admission control.
// The evaluate endpoint runs through the batching layer instead: the
// handler consults the result cache and joins a coalescing group, and
// the GROUP executor (runEvalGroup) acquires one admission slot for the
// whole group — a coalesced waiter never holds a compute slot. Chaos
// error/panic injection stays per-request at the evaluate handler;
// chaos latency moves into the executor so it still burns slot time.
func newServer(cfg serverConfig) *server {
	cfg.fillDefaults()
	s := &server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		limiter: serve.NewLimiter(cfg.MaxConcurrent, cfg.QueueDepth, cfg.MaxQueueWait),
		metrics: &serve.Metrics{},
		logger:  cfg.Logger,
		started: time.Now(),
	}
	s.evalClass = serve.Class{Name: "evaluate", Timeout: cfg.EvaluateTimeout}
	s.evalCache = batchq.NewCache[[]byte](evalCacheEntries)
	s.bodyKeys = batchq.NewCache[evalKeys](evalCacheEntries)
	s.evalQueue = batchq.New(context.Background(), evalBatchMax, s.runEvalGroup)
	cheap := func(h http.HandlerFunc) http.Handler {
		return cfg.Chaos.Wrap(h)
	}
	compute := func(class serve.Class, h http.HandlerFunc) http.Handler {
		return serve.Admit(s.limiter, class, s.metrics, s.logger, cfg.Chaos.Wrap(h))
	}
	expClass := serve.Class{Name: "experiment", Timeout: cfg.ExperimentTimeout}

	s.mux.Handle("GET /healthz", cheap(s.handleHealthz))
	s.mux.Handle("GET /readyz", cheap(s.handleReadyz))
	s.mux.Handle("GET /metricz", cheap(s.handleMetricz))
	s.mux.Handle("POST /v1/networks", cheap(s.handleRegisterNetwork))
	s.mux.Handle("GET /v1/networks", cheap(s.handleNetworkIndex))
	s.mux.Handle("GET /v1/experiments", cheap(s.handleExperimentIndex))
	s.mux.Handle("POST /v1/evaluate", cfg.Chaos.WrapFaults(http.HandlerFunc(s.handleEvaluate)))
	s.mux.Handle("GET /v1/experiments/{id}", compute(expClass, s.handleExperiment))

	s.handler = serve.AccessLog(s.logger, s.metrics,
		serve.Recover(s.logger, s.metrics, s.mux))
	return s
}

// maxRequestBody bounds every POST body; larger requests get 413.
const maxRequestBody = 1 << 20

// ServeHTTP implements http.Handler.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// StartDrain flips the server into drain mode: /readyz goes 503 so
// balancers stop routing here, and new compute requests shed immediately
// while in-flight ones finish under the HTTP server's graceful Shutdown.
func (s *server) StartDrain() { s.limiter.StartDrain() }

// writeError emits the uniform JSON error body (no phase, no Retry-After
// — admission failures are written by the serve middleware instead).
func (s *server) writeError(w http.ResponseWriter, status int, err error) {
	serve.WriteError(w, s.logger, status, "", 0, err)
}

// writeComputeError maps a computation error onto the wire and the
// access-log outcome. A deadline that expired mid-compute carries
// phase=compute in the body, completing the queue-vs-compute story the
// admission middleware starts. A cancelled client gets no body (nobody is
// listening); AccessLog books it as 499/client_gone, NOT as a shed or a
// server error, so overload accounting stays honest.
func (s *server) writeComputeError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, context.Canceled) {
		serve.MarkOutcome(r.Context(), "client_gone")
		return
	}
	phase := ""
	if errors.Is(err, context.DeadlineExceeded) {
		phase = "compute"
		s.metrics.ComputeDeadline.Add(1)
		serve.MarkOutcome(r.Context(), "compute_deadline")
	} else {
		serve.MarkOutcome(r.Context(), "error")
	}
	serve.WriteError(w, s.logger, errorStatus(err), phase, 0, err)
}

// errorStatus maps a computation error to its HTTP status: typed facade
// errors are the client's fault, context expiry is a timeout, anything
// else is ours. context.Canceled only reaches a response when the client
// already disconnected; writeComputeError suppresses the body and the
// access log records 499 instead.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, sim.ErrUnknownBackend),
		errors.Is(err, sim.ErrUnknownNetwork),
		errors.Is(err, sim.ErrInvalidOption),
		errors.Is(err, sim.ErrInvalidSpec):
		return http.StatusBadRequest
	case errors.Is(err, sim.ErrDuplicateNetwork):
		return http.StatusConflict
	case errors.Is(err, sim.ErrRegistryFull):
		return http.StatusInsufficientStorage
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return serve.StatusClientGone
	}
	return http.StatusInternalServerError
}

// writeJSON emits v as an indented JSON response with the given status.
// The headers are set before the status is written, since net/http
// ignores header edits made after WriteHeader. Encode failures are
// logged: the status is committed by then, so the log line is the only
// place the failure can surface.
func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil && s.logger != nil {
		s.logger.Printf("timelyd: encoding response: %v", err)
	}
}

// pickFormat negotiates the representation of the experiment endpoints:
// an explicit ?format= query parameter wins, then the Accept header, then
// aligned text.
func pickFormat(r *http.Request) (string, error) {
	if f := r.URL.Query().Get("format"); f != "" {
		switch f {
		case "text", "csv", "json":
			return f, nil
		}
		return "", fmt.Errorf("unknown format %q (want text, csv or json)", f)
	}
	accept := r.Header.Get("Accept")
	switch {
	case strings.Contains(accept, "application/json"):
		return "json", nil
	case strings.Contains(accept, "text/csv"):
		return "csv", nil
	}
	return "text", nil
}

// contentType maps a negotiated format to its response media type.
func contentType(format string) string {
	switch format {
	case "json":
		return "application/json; charset=utf-8"
	case "csv":
		return "text/csv; charset=utf-8"
	}
	return "text/plain; charset=utf-8"
}

// handleHealthz reports pure liveness plus the served inventory. It stays
// 200 under overload and during drain — "the process is up" — so
// orchestrators do not kill a pod that is merely busy; routing decisions
// belong to /readyz.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"uptime_s":    time.Since(s.started).Seconds(),
		"backends":    sim.Backends(),
		"experiments": len(experiments.All()),
	})
}

// handleReadyz reports routability: 503 while draining (the balancer must
// stop sending traffic so Shutdown can finish) and 503 when the admission
// queue is saturated (new compute requests would only bounce). The body
// always carries the live queue picture.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	conc, depth := s.limiter.Capacity()
	body := map[string]any{
		"in_flight":      s.limiter.InFlight(),
		"queued":         s.limiter.Queued(),
		"max_concurrent": conc,
		"queue_depth":    depth,
	}
	status := http.StatusOK
	switch {
	case s.limiter.Draining():
		body["status"] = "draining"
		w.Header().Set("Retry-After", "2")
		status = http.StatusServiceUnavailable
	case s.limiter.Saturated():
		body["status"] = "overloaded"
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	default:
		body["status"] = "ready"
	}
	s.writeJSON(w, status, body)
}

// handleMetricz exposes the service counters as JSON (admission, shed,
// deadline, panic, client-gone, queue-wait totals) plus the live limiter
// gauges — the numbers the loadgen harness correlates its client-side
// report against.
func (s *server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot()
	snap["in_flight"] = s.limiter.InFlight()
	snap["queued"] = s.limiter.Queued()
	snap["shed_total"] = s.metrics.Shed()
	hits, misses, evictions := s.evalCache.Stats()
	snap["cache_hits"] = hits
	snap["cache_misses"] = misses
	snap["cache_evictions"] = evictions
	snap["cache_hits_peer_owned"] = s.peerOwnedHits.Load()
	snap["decode_skipped"] = s.decodeSkipped.Load()
	batches, batched, coalesced := s.evalQueue.Stats()
	snap["batches"] = batches
	snap["batched_requests"] = batched
	snap["coalesced_requests"] = coalesced
	// The cluster counters are part of the stable snapshot shape even
	// standalone (all-zero); per-peer breaker keys appear only when a
	// fleet is configured. Ordering stays stable because writeJSON
	// renders maps with sorted keys.
	snap["forwarded"] = 0
	snap["forward_errors"] = 0
	snap["failover_local"] = 0
	if c := s.cfg.Cluster; c != nil {
		c.Snapshot(snap)
	}
	s.writeJSON(w, http.StatusOK, snap)
}

// decodeJSON enforces the POST body contract shared by every mutation
// endpoint: readJSONBody's media type and size checks, then decodeStrict.
// It writes the error response itself and reports whether decoding
// succeeded.
func (s *server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	raw, ok := s.readJSONBody(w, r)
	return ok && s.decodeStrict(w, raw, v)
}

// readJSONBody is the transport half of the POST body contract: a JSON
// media type (415 otherwise) and a body bounded by maxRequestBody (413
// when exceeded). It writes the error response itself and returns the
// body bytes — the cluster forwarding path re-sends those bytes verbatim
// so the owning replica decodes (and answers) the identical request.
func (s *server) readJSONBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	// The exact media type every client sends skips the general parser.
	if ct := r.Header.Get("Content-Type"); ct != "application/json" {
		if mt, _, err := mime.ParseMediaType(ct); err != nil || mt != "application/json" {
			s.writeError(w, http.StatusUnsupportedMediaType,
				fmt.Errorf("content type %q is not supported; send application/json", ct))
			return nil, false
		}
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte limit", tooBig.Limit))
			return nil, false
		}
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return nil, false
	}
	return raw, true
}

// decodeStrict is the content half of the POST body contract: strict
// field checking (400 on unknown fields or malformed JSON) and exactly ONE
// JSON value — content after the first value (a second object, stray
// tokens) is a 400, not silently ignored. It writes the error response
// itself and reports whether decoding succeeded.
func (s *server) decodeStrict(w http.ResponseWriter, raw []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return false
	}
	// The body must be exactly one JSON value: a second Decode must hit
	// clean EOF, else the request smuggled trailing content past the
	// strict field check.
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		s.writeError(w, http.StatusBadRequest,
			errors.New("decoding request body: unexpected content after the JSON value"))
		return false
	}
	return true
}

// handleEvaluate decodes one sim.EvalRequest — naming a zoo or registered
// network, or carrying an inline network spec — and serves it through the
// batching layer:
//
//  0. check the media type and read the bounded body (415/413 on every
//     request), then look the body's SHA-256 digest up in the body memo,
//  1. on a memo miss, decode the body strictly (decodeEval), resolve a
//     name this replica's registry holds into its inline spec, and key
//     the resolved request; the keys enter the memo. A malformed request
//     or an unknown name is a 400 here, before admission or a hop,
//  2. consult the result cache — a hit answers without a compute slot or
//     a hop, even when a peer owns the key, and a memo hit answered here
//     is never decoded (a memo hit whose answer was evicted is decoded
//     now),
//  3. in cluster mode, route on the batch key: a request owned by a
//     healthy peer is proxied there with an incremented hop header and
//     the job's body, and the owner's response — status, Retry-After,
//     Cache-Status, body — streams back verbatim; a 200 is also kept in
//     this replica's cache. Requests at the hop bound, owned by this
//     replica, or owned by a peer whose breaker is open compute locally
//     (the latter trades cache locality for availability); a forward
//     that fails at transport level falls through to local compute the
//     same way,
//  4. join the coalescing queue: byte-identical in-flight requests share
//     one computation (Cache-Status: coalesced), compatible requests that
//     differ only in seed and wait for the same compute slot batch into
//     one fused group evaluation.
//
// Every request consults the result cache exactly once, so cache_hits
// and cache_misses keep counting requests. The group executor
// (runEvalGroup) holds the single admission slot for the whole group;
// shed failures fan back here per waiter.
func (s *server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readJSONBody(w, r)
	if !ok {
		return
	}
	sum := sha256.Sum256(raw)
	digest := string(sum[:])
	k, memo := s.bodyKeys.Get(digest)
	var job *evalJob // nil until the body is decoded
	if !memo {
		if job, ok = s.decodeEval(w, r, raw); !ok {
			return
		}
		k = job.evalKeys
		s.bodyKeys.Put(digest, k)
	}
	s.markEvalClass(r)
	if s.serveCached(w, k) {
		if memo {
			s.decodeSkipped.Add(1)
		}
		return
	}
	if job == nil {
		// The memo holds only bodies that decoded and keyed.
		if job, ok = s.decodeEval(w, r, raw); !ok {
			return
		}
	}
	if c := s.cfg.Cluster; c != nil {
		if owner, forward := c.Route(k.batchKey, cluster.Hops(r)); forward {
			body, err := c.Forward(w, r, owner, job.body)
			if err == nil {
				if body != nil {
					s.evalCache.Put(k.cacheKey, body)
				}
				serve.MarkOutcome(r.Context(), "forwarded")
				return
			}
			// Transport-level forward failure: the breaker and the
			// forward_errors/failover_local counters are already booked;
			// fall through and compute locally so the client still gets
			// an answer while the owner is down.
		}
		w.Header().Set(cluster.ServedByHeader, c.Self())
	}
	res, outcome, err := s.evalQueue.Do(r.Context(), k.batchKey, k.cacheKey, job)
	if info := serve.RequestInfo(r.Context()); info != nil {
		info.QueueWait = res.wait
	}
	if err != nil {
		s.writeEvalError(w, r, err)
		return
	}
	status := "miss"
	if outcome == batchq.Coalesced {
		status = "coalesced"
	}
	s.writeEvalBody(w, res.body, status)
}

// decodeEval decodes an evaluate body strictly, resolves a registered
// name into its inline spec and keys the resolved request, writing the
// error response itself. The job's body is raw, or the resolved request
// when a name was resolved, so an owner needs no registry of its own.
func (s *server) decodeEval(w http.ResponseWriter, r *http.Request, raw []byte) (*evalJob, bool) {
	job := &evalJob{req: new(sim.EvalRequest), body: raw}
	if !s.decodeStrict(w, raw, job.req) {
		return nil, false
	}
	s.markEvalClass(r)
	named := job.req.Spec == nil
	err := s.networks.Resolve(job.req)
	if err == nil {
		job.cacheKey, job.batchKey, err = job.req.Keys()
	}
	if err != nil {
		s.writeComputeError(w, r, err)
		return nil, false
	}
	if named && job.req.Spec != nil {
		// A request that keyed has only finite floats, so it marshals.
		job.body, _ = json.Marshal(job.req)
	}
	return job, true
}

// markEvalClass books the request under the evaluate deadline class in
// the access log.
func (s *server) markEvalClass(r *http.Request) {
	if info := serve.RequestInfo(r.Context()); info != nil {
		info.Class = s.evalClass.Name
	}
}

// serveCached answers from the result cache when it holds cacheKey and
// reports whether it did. In cluster mode the answer names this replica
// as its server, and a hit on a key another replica owns is counted in
// cache_hits_peer_owned.
func (s *server) serveCached(w http.ResponseWriter, k evalKeys) bool {
	body, ok := s.evalCache.Get(k.cacheKey)
	if !ok {
		return false
	}
	if c := s.cfg.Cluster; c != nil {
		w.Header().Set(cluster.ServedByHeader, c.Self())
		if c.Owner(k.batchKey) != c.Self() {
			s.peerOwnedHits.Add(1)
		}
	}
	s.writeEvalBody(w, body, "hit")
	return true
}

// writeEvalBody writes a finished evaluate response body with its
// Cache-Status header (hit, miss or coalesced).
func (s *server) writeEvalBody(w http.ResponseWriter, body []byte, cacheStatus string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Cache-Status", cacheStatus)
	if _, err := w.Write(body); err != nil && s.logger != nil {
		s.logger.Printf("timelyd: writing evaluate response: %v", err)
	}
}

// shedError marks an admission failure crossing back from the group
// executor to the waiting handlers, which must answer it with the uniform
// shed response (WriteShed) rather than a compute error.
type shedError struct{ err error }

func (e *shedError) Error() string { return e.err.Error() }
func (e *shedError) Unwrap() error { return e.err }

// writeEvalError maps a batching-path failure onto the wire. Three cases
// beyond the classic compute errors:
//
//   - the shared computation was cancelled, in the queue or in compute,
//     but THIS client is still connected → a retryable 503, never the
//     silent 499 path, which would leave a listening client an empty 200.
//     batchq never hands a live waiter an abandoned group, so this guards
//     the contract rather than a known path;
//   - the group was shed at admission → every waiter gets the uniform
//     queue-phase shed body (each waiter books its own shed metric: the
//     counters track requests, not groups);
//   - everything else → writeComputeError, same as the unbatched server.
func (s *server) writeEvalError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, context.Canceled) && r.Context().Err() == nil {
		serve.MarkOutcome(r.Context(), "shed")
		serve.WriteError(w, s.logger, http.StatusServiceUnavailable, "queue", time.Second,
			errors.New("shared computation was abandoned; retry"))
		return
	}
	var shed *shedError
	if errors.As(err, &shed) {
		serve.WriteShed(w, r, s.limiter, s.metrics, s.logger, shed.err)
		return
	}
	s.writeComputeError(w, r, err)
}

// runEvalGroup is the batchq executor: it runs ONE group of evaluate
// requests under a single admission slot and returns each member's
// finished response body with the group's slot wait. It acquires the slot
// with the evaluate deadline class first and seals the group only then, so
// every request that queued behind the slot meanwhile joins this group; on
// shed every member fails with the same wrapped admission error. Members
// whose body the result cache already holds take it without computing,
// and the slot is booked as an admission only when something computes.
// Chaos latency is applied inside the slot (matching where Chaos.Wrap ran
// when the handler held the slot itself), the fused evaluation runs under
// the class budget minus queue wait, and each successful body is published
// to the result cache.
func (s *server) runEvalGroup(ctx context.Context, seal func() []*evalJob) ([]evalResult, []error) {
	g, err := s.limiter.Acquire(ctx, s.evalClass.Timeout)
	jobs := seal()
	results := make([]evalResult, len(jobs))
	errs := make([]error, len(jobs))
	if err != nil {
		for i := range errs {
			errs[i] = &shedError{err: err}
		}
		return results, errs
	}
	defer g.Release()
	for i := range results {
		results[i].wait = g.Wait
	}
	// A request can miss the result cache and reach the queue just after
	// the group computing its key published the body and left, too late
	// to coalesce. Its job takes the published body: computing again
	// would answer one request with two different elapsed_ms.
	var todo []int // indexes of the jobs still to compute
	for i, j := range jobs {
		if body, ok := s.evalCache.Peek(j.cacheKey); ok {
			results[i].body = body
			continue
		}
		todo = append(todo, i)
	}
	if len(todo) == 0 {
		return results, errs
	}
	s.metrics.Admitted.Add(1)
	s.metrics.QueueWaitNanos.Add(int64(g.Wait))
	if s.evalClass.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.evalClass.Timeout-g.Wait)
		defer cancel()
	}
	s.cfg.Chaos.SleepLatency(ctx, "/v1/evaluate")
	reqs := make([]*sim.EvalRequest, len(todo))
	for k, i := range todo {
		reqs[k] = jobs[i].req
	}
	vals, verrs := sim.EvaluateBatch(ctx, reqs)
	for k, i := range todo {
		if verrs[k] != nil {
			errs[i] = verrs[k]
			continue
		}
		body, merr := json.MarshalIndent(vals[k], "", "  ")
		if merr != nil {
			errs[i] = fmt.Errorf("encoding response: %w", merr)
			continue
		}
		body = append(body, '\n')
		results[i].body = body
		s.evalCache.Put(jobs[i].cacheKey, body)
	}
	return results, errs
}

// handleRegisterNetwork validates the posted network spec and registers it
// in this replica's registry, so later /v1/evaluate requests entering here
// can reference it by name.
// The response summarises the compiled network (layer count, MACs, params)
// and its canonical spec hash. Registration is idempotent for an identical
// spec; a name conflict is 409, an invalid spec 400. Validation is pure
// shape inference — cheap — so this endpoint skips admission control.
func (s *server) handleRegisterNetwork(w http.ResponseWriter, r *http.Request) {
	var spec sim.NetworkSpec
	if !s.decodeJSON(w, r, &spec) {
		return
	}
	info, err := s.networks.Register(&spec)
	if err != nil {
		s.writeError(w, errorStatus(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, info)
}

// handleNetworkIndex lists the evaluable networks: the built-in Table III
// zoo and every custom network registered on this replica.
func (s *server) handleNetworkIndex(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"zoo":    sim.ZooNetworks(),
		"custom": s.networks.Networks(),
	})
}

// experimentIndexTable renders the experiment inventory as a report table,
// the same renderer stack the artifacts themselves use.
func experimentIndexTable() *report.Table {
	t := report.New("", "id", "paper", "description")
	for _, e := range experiments.Index() {
		t.Add(e.ID, e.Paper, e.Description)
	}
	return t
}

// handleExperimentIndex lists the runnable experiments.
func (s *server) handleExperimentIndex(w http.ResponseWriter, r *http.Request) {
	format, err := pickFormat(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	switch format {
	case "json":
		s.writeJSON(w, http.StatusOK, map[string]any{
			"backends":    sim.Backends(),
			"experiments": experiments.Index(),
		})
	case "csv":
		w.Header().Set("Content-Type", contentType(format))
		experimentIndexTable().RenderCSV(w)
	default:
		w.Header().Set("Content-Type", contentType(format))
		experimentIndexTable().Render(w)
		fmt.Fprintf(w, "\nbackends (POST /v1/evaluate): %s\n", strings.Join(sim.Backends(), ", "))
	}
}

// handleExperiment regenerates one paper artifact under the admitted
// request context (deadline class "experiment", minus any queue wait) and
// writes it in the negotiated representation. ?format is the one query
// parameter; any other answers 400, as an unknown body field does on
// evaluate. The artifact is rendered into a buffer BEFORE any header is
// written, so a render failure surfaces as a clean 500 instead of a 200
// with a truncated body.
func (s *server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	format, err := pickFormat(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	q := r.URL.Query()
	delete(q, "format")
	if len(q) > 0 {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown query parameters %q (want only format)", slices.Sorted(maps.Keys(q))))
		return
	}
	e, err := experiments.ByID(r.PathValue("id"))
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	results := experiments.Run(r.Context(), []experiments.Experiment{e},
		experiments.Options{Par: s.cfg.Par})
	if rerr := results[0].Err; rerr != nil {
		s.writeComputeError(w, r, fmt.Errorf("%s: %w", e.ID, rerr))
		return
	}
	var buf bytes.Buffer
	switch format {
	case "json":
		err = results[0].Document().RenderJSON(&buf)
	case "csv":
		err = experiments.WriteCSV(&buf, results)
	default:
		err = experiments.WriteText(&buf, results)
	}
	if err != nil {
		s.writeComputeError(w, r, fmt.Errorf("rendering %s as %s: %w", e.ID, format, err))
		return
	}
	w.Header().Set("Content-Type", contentType(format))
	if _, err := w.Write(buf.Bytes()); err != nil && s.logger != nil {
		s.logger.Printf("timelyd: writing %s response: %v", e.ID, err)
	}
}
