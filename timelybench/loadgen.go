package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// opKind classifies a scheduled operation.
type opKind int

const (
	opEval     opKind = iota // POST /v1/evaluate
	opByName                 // POST /v1/evaluate naming a network registered during the run
	opRegister               // POST /v1/networks
	opHealthz                // GET /healthz probe
)

// Op is one scheduled request of an open-loop workload. Due is its
// intended send time on the schedule, relative to the start of the run.
type Op struct {
	Due   time.Duration
	Entry int // index into the target list
	Kind  opKind
	Path  string
	Body  []byte // nil for GETs
	// Backend is the evaluate request's backend ("" for other kinds).
	Backend string
}

// Sample is the client-side record of one Op. Every time is relative to
// the start of the run, like Op.Due.
type Sample struct {
	// Due is the op's due time.
	Due time.Duration
	// Queued is when the dispatcher handed the op to the worker queue;
	// Queued − Due is the generator's own lag.
	Queued time.Duration
	// Start is when a worker picked the op up; Start − Due is the time
	// the op waited behind earlier ones.
	Start time.Duration
	// End is when the response body was fully read.
	End time.Duration
	// Status is the HTTP status, 0 on a transport error.
	Status      int
	Err         string
	CacheStatus string
	ServedBy    string
	// ElapsedMS is the response's elapsed_ms (evaluate 200s), -1 if absent.
	ElapsedMS float64
	// Digest is the SHA-256 of the response body with the elapsed_ms value
	// cut out — the part the correctness gate compares.
	Digest [32]byte
	// Body is kept for non-200 answers and for the first answer with each
	// digest, so a gate failure can show what came back.
	Body []byte
}

// Latency is the op's latency measured from its due time, so time spent
// waiting for the generator or for a connection is charged to it.
func (s *Sample) Latency() time.Duration { return s.End - s.Due }

// RoundTrip is the time the request spent on its connection.
func (s *Sample) RoundTrip() time.Duration { return s.End - s.Start }

// Drive runs ops as an open loop against targets (base URLs) and returns
// one Sample per op, in op order. n workers take ops from one FIFO
// queue, one request in flight each; a worker keeps one keep-alive
// connection per target. The dispatcher never drops an op: a due op waits
// in the queue until a worker is free, and that wait is part of its
// latency. ops must be sorted by Due.
func Drive(ctx context.Context, targets []string, n int, ops []Op) []Sample {
	samples := make([]Sample, len(ops))
	// Room for every op, so the dispatcher never blocks or drops.
	queue := make(chan int, len(ops))
	done := make(chan struct{})
	// Each connection is opened by one untimed probe before the clock
	// starts, so the first scheduled request does not pay the dial.
	var warm sync.WaitGroup
	start := make(chan struct{})
	var base time.Time
	for w := 0; w < n; w++ {
		warm.Add(1)
		go func() {
			defer func() { done <- struct{}{} }()
			client := &http.Client{Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			}}
			defer client.CloseIdleConnections()
			for _, t := range targets {
				if resp, err := client.Get(t + "/healthz"); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
			warm.Done()
			<-start
			seen := map[[32]byte]bool{}
			for i := range queue {
				do(ctx, client, targets[ops[i].Entry], &ops[i], &samples[i], base, seen)
			}
		}()
	}
	warm.Wait()
	base = time.Now()
	close(start)
	for i := range ops {
		if d := ops[i].Due - time.Since(base); d > 0 {
			time.Sleep(d)
		}
		samples[i].Due = ops[i].Due
		samples[i].Queued = time.Since(base)
		queue <- i
	}
	close(queue)
	for w := 0; w < n; w++ {
		<-done
	}
	return samples
}

// requestTimeout bounds one request; a request that exceeds it fails.
const requestTimeout = 60 * time.Second

// do performs one op on the worker's connection and fills its sample.
// seen holds the digests this worker already kept a body for.
func do(ctx context.Context, client *http.Client, target string, op *Op, s *Sample, base time.Time, seen map[[32]byte]bool) {
	s.Start = time.Since(base)
	s.ElapsedMS = -1
	defer func() { s.End = time.Since(base) }()
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	method, body := http.MethodGet, io.Reader(nil)
	if op.Body != nil {
		method, body = http.MethodPost, bytes.NewReader(op.Body)
	}
	req, err := http.NewRequestWithContext(rctx, method, target+op.Path, body)
	if err != nil {
		s.Err = err.Error()
		return
	}
	if op.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		s.Err = err.Error()
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		s.Err = err.Error()
		return
	}
	s.Status = resp.StatusCode
	s.CacheStatus = resp.Header.Get("Cache-Status")
	s.ServedBy = resp.Header.Get("X-Timely-Served-By")
	norm, elapsed := cutElapsed(raw)
	s.ElapsedMS = elapsed
	s.Digest = sha256.Sum256(norm)
	if s.Status != http.StatusOK || !seen[s.Digest] {
		seen[s.Digest] = true
		s.Body = raw
	}
}

// elapsedField is how the server's indented encoder spells the top-level
// wall-clock field of an EvalResult, always its last field.
var elapsedField = []byte("\n  \"elapsed_ms\": ")

// cutElapsed returns body without the value of its top-level elapsed_ms
// field, and that value (-1 when the body has none). It is the only part
// of an evaluate response allowed to differ between replicas, cache hits
// and a fresh in-process evaluation.
func cutElapsed(body []byte) ([]byte, float64) {
	i := bytes.LastIndex(body, elapsedField)
	if i < 0 {
		return body, -1
	}
	start := i + len(elapsedField)
	end := start
	for end < len(body) && body[end] != '\n' {
		end++
	}
	v, err := strconv.ParseFloat(string(body[start:end]), 64)
	if err != nil {
		return body, -1
	}
	out := make([]byte, 0, len(body)-(end-start))
	out = append(out, body[:start]...)
	return append(out, body[end:]...), v
}
