// Package batchq is the serving-side request-coalescing layer behind
// timelyd's POST /v1/evaluate: a queue that fuses compatible requests
// waiting for the same compute slot into one shared execution, plus
// singleflight de-duplication of byte-identical requests and an LRU
// result cache (cache.go).
//
// Requests enter through Do with two keys. The batch key names the
// equivalence class whose members may execute as ONE group computation
// (for the evaluation service: everything but the Monte-Carlo seed); the
// job key names an exact computation (batch key + seed). The first job of
// a batch key opens a group and starts its executor, the queue's Run
// callback, at once: no timer holds it back. The executor first waits for
// whatever its computation needs (for timelyd, an admission slot), then
// calls seal, which closes the group and hands it every job that joined
// in the meantime. An idle server thus computes each request at once,
// while a busy one fuses the requests that queue behind the slot. A group
// that reaches the batch cap stops gathering; the next job of its batch
// key opens a new group. Requests whose job key matches an in-flight job
// (gathering OR executing) do not enqueue new work at all: they coalesce
// onto the existing job and share its result, the classic singleflight
// shape.
//
// The group computation runs on its own goroutine under a context
// derived from the queue's base context, NOT from any individual
// waiter's: a client that disconnects mid-flight abandons only its own
// wait, and the shared computation is cancelled only when the LAST
// waiter on the group has departed. This is what makes coalescing safe
// under impatient clients — one 499 must never poison the result the
// surviving waiters get. An abandoned group is never joined: a later
// request with its batch key opens a fresh group instead.
package batchq

import (
	"context"
	"sync"
	"sync/atomic"
)

// Outcome classifies how a Do call obtained its result.
type Outcome int

const (
	// Computed: the request entered a batch group and the result was
	// computed (possibly shared with other group members at other seeds).
	Computed Outcome = iota
	// Coalesced: the request joined a byte-identical in-flight job and
	// shared its result without enqueueing any work.
	Coalesced
)

// Run executes one group. It starts as soon as the group opens; seal
// closes the group to new jobs and returns their requests in arrival
// order, so Run calls it once it is ready to compute (and before it
// returns, on failure too). The callback returns one value and one error
// per sealed request (a nil error slice means every job succeeded). ctx
// is the group's context: it is cancelled when every waiter has departed,
// and callers are expected to derive their compute deadline from it.
type Run[T, V any] func(ctx context.Context, seal func() []T) ([]V, []error)

// Queue is the coalescing batch queue. One instance serves concurrent
// Do calls; the zero value is not usable — construct with New.
type Queue[T, V any] struct {
	base     context.Context
	maxBatch int
	run      Run[T, V]

	mu        sync.Mutex
	gathering map[string]*group[T, V] // batch key → group not yet sealed or full
	inflight  map[string]*job[T, V]   // job key → gathering or executing job

	batches   atomic.Int64 // groups executed
	batched   atomic.Int64 // requests that entered a group as a distinct job
	coalesced atomic.Int64 // requests that joined an existing job
}

// job is one distinct computation: a request plus the completion state
// every waiter coalesced onto it shares.
type job[T, V any] struct {
	key  string
	req  T
	g    *group[T, V]
	done chan struct{}
	val  V
	err  error
}

// group is the jobs of one batch key gathered while their executor waits.
type group[T, V any] struct {
	key    string
	ctx    context.Context
	cancel context.CancelFunc
	jobs   []*job[T, V] // appended only while the group is in Queue.gathering
	// waiters counts live Do calls (leaders and coalesced joiners) still
	// waiting on any job of this group; guarded by Queue.mu. When it
	// drops to zero the group context is cancelled.
	waiters int
}

// New builds a queue. maxBatch caps the distinct jobs per group (values
// < 1 are treated as 1). Group computations derive their context from
// base, which should outlive every Do call (typically
// context.Background()).
func New[T, V any](base context.Context, maxBatch int, run Run[T, V]) *Queue[T, V] {
	if base == nil {
		base = context.Background()
	}
	return &Queue[T, V]{
		base:      base,
		maxBatch:  max(maxBatch, 1),
		run:       run,
		gathering: map[string]*group[T, V]{},
		inflight:  map[string]*job[T, V]{},
	}
}

// Do submits one request and blocks until its result is available or ctx
// fires. Requests sharing a batch key gather into one group while its
// executor waits; requests sharing a job key coalesce onto one
// computation. A ctx cancellation abandons only this caller's wait — the
// shared computation keeps running for the other waiters and is cancelled
// only when the last one departs.
func (q *Queue[T, V]) Do(ctx context.Context, batchKey, jobKey string, req T) (V, Outcome, error) {
	q.mu.Lock()
	// Singleflight: a byte-identical job already gathering or executing
	// serves this request too. A group whose every waiter already departed
	// is abandoned — its context is cancelled, under mu — so it is neither
	// coalesced onto nor gathered into.
	if j, ok := q.inflight[jobKey]; ok && j.g.ctx.Err() == nil {
		j.g.waiters++
		q.coalesced.Add(1)
		q.mu.Unlock()
		return q.wait(ctx, j, Coalesced)
	}
	g := q.gathering[batchKey]
	if g == nil || g.ctx.Err() != nil {
		g = q.openLocked(batchKey)
	}
	j := &job[T, V]{key: jobKey, req: req, g: g, done: make(chan struct{})}
	g.jobs = append(g.jobs, j)
	g.waiters++
	q.inflight[jobKey] = j
	q.batched.Add(1)
	if len(g.jobs) >= q.maxBatch {
		q.closeLocked(g)
	}
	q.mu.Unlock()
	return q.wait(ctx, j, Computed)
}

// openLocked opens a group for a batch key and starts its executor, which
// cannot seal it before the caller, holding mu, has added its job.
func (q *Queue[T, V]) openLocked(batchKey string) *group[T, V] {
	gctx, cancel := context.WithCancel(q.base)
	g := &group[T, V]{key: batchKey, ctx: gctx, cancel: cancel}
	q.gathering[batchKey] = g
	q.batches.Add(1)
	go q.execute(g)
	return g
}

// closeLocked stops g gathering; a later job of its batch key opens a new
// group. Caller holds mu; closing twice is harmless.
func (q *Queue[T, V]) closeLocked(g *group[T, V]) {
	if q.gathering[g.key] == g {
		delete(q.gathering, g.key)
	}
}

// seal closes g and returns its requests in arrival order.
func (q *Queue[T, V]) seal(g *group[T, V]) []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closeLocked(g)
	reqs := make([]T, len(g.jobs))
	for i, j := range g.jobs {
		reqs[i] = j.req
	}
	return reqs
}

// execute runs one group and fans the per-job results out to every
// waiter. Once the group is closed it owns g.jobs exclusively.
func (q *Queue[T, V]) execute(g *group[T, V]) {
	vals, errs := q.run(g.ctx, func() []T { return q.seal(g) })
	q.mu.Lock()
	q.closeLocked(g)
	for i, j := range g.jobs {
		if i < len(vals) {
			j.val = vals[i]
		}
		if errs != nil && i < len(errs) {
			j.err = errs[i]
		}
		// Stop coalescing onto a completed job (a later identical request
		// must become a fresh computation — or a cache hit upstream).
		if q.inflight[j.key] == j {
			delete(q.inflight, j.key)
		}
		close(j.done)
	}
	q.mu.Unlock()
	g.cancel()
}

// wait blocks one Do call on its job. On ctx expiry the caller departs
// the group: the shared computation is cancelled only if this was the
// group's last live waiter.
func (q *Queue[T, V]) wait(ctx context.Context, j *job[T, V], o Outcome) (V, Outcome, error) {
	select {
	case <-j.done:
		return j.val, o, j.err
	case <-ctx.Done():
		q.depart(j.g)
		var zero V
		return zero, o, ctx.Err()
	}
}

// depart records a waiter abandoning its group mid-flight. The last one
// cancels the group under mu, so Do never joins a group in the instant
// between its last waiter leaving and its cancellation.
func (q *Queue[T, V]) depart(g *group[T, V]) {
	q.mu.Lock()
	defer q.mu.Unlock()
	g.waiters--
	if g.waiters <= 0 {
		g.cancel()
	}
}

// Stats returns the lifetime counters: groups executed, requests that
// entered a group as distinct jobs, and requests that coalesced onto an
// existing job.
func (q *Queue[T, V]) Stats() (batches, batchedRequests, coalescedRequests int64) {
	return q.batches.Load(), q.batched.Load(), q.coalesced.Load()
}
