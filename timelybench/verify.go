package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/sim"
)

// verdict is the correctness gate's reading of one run.
type verdict struct {
	// ok marks the samples that succeeded with correct bytes.
	ok []bool
	// failed counts operations that failed: transport errors, timeouts
	// and statuses other than the expected one.
	failed int
	// byName and registryMiss count evaluations of networks registered
	// during the run, and those answered 400 "unknown network" because
	// the ring owner is the replica the name was not registered on.
	byName, registryMiss int
	// problems lists answers whose bytes differ from the oracle's; any
	// entry fails the run.
	problems []string
	// results holds the oracle's result per distinct request body.
	results map[string]*sim.EvalResult
}

// expectation is the oracle's answer to one distinct request body.
type expectation struct {
	digest [32]byte
	res    *sim.EvalResult
	err    error
}

// oracleEval evaluates one raw /v1/evaluate body in-process the way the
// server does — strict decode, sim.Evaluate, indented encoding with a
// trailing newline — and returns the digest of the bytes with the
// elapsed_ms value cut out.
func oracleEval(ctx context.Context, body []byte) expectation {
	var req sim.EvalRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return expectation{err: err}
	}
	res, err := sim.Evaluate(ctx, &req)
	if err != nil {
		return expectation{err: err}
	}
	return expectation{digest: digestOf(res), res: res}
}

// digestOf encodes v as the server's indented encoder does and digests
// the bytes with the elapsed_ms value cut out.
func digestOf(v any) [32]byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err)
	}
	norm, _ := cutElapsed(append(b, '\n'))
	return sha256.Sum256(norm)
}

// gate checks every sample of a run against an in-process oracle: each
// 200 answer to an evaluation must be byte-identical, except elapsed_ms,
// to sim.Evaluate of the same body, and each registration answer to
// sim.RegisterNetwork of the same spec. Distinct bodies are evaluated
// once each, par at a time.
func gate(ctx context.Context, ops []Op, samples []Sample, par int) verdict {
	v := verdict{ok: make([]bool, len(ops)), results: map[string]*sim.EvalResult{}}
	regs := map[string][32]byte{}
	var bodies []string
	index := map[string]int{}
	for _, op := range ops {
		switch op.Kind {
		case opRegister:
			if _, done := regs[string(op.Body)]; done {
				continue
			}
			var spec sim.NetworkSpec
			if err := json.Unmarshal(op.Body, &spec); err != nil {
				panic(err)
			}
			info, err := sim.RegisterNetwork(&spec)
			if err != nil {
				v.problems = append(v.problems, fmt.Sprintf("oracle cannot register %s: %v", spec.Name, err))
				continue
			}
			regs[string(op.Body)] = digestOf(info)
		case opEval, opByName:
			if _, seen := index[string(op.Body)]; !seen {
				index[string(op.Body)] = len(bodies)
				bodies = append(bodies, string(op.Body))
			}
		}
	}
	exp := make([]expectation, len(bodies))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				exp[i] = oracleEval(ctx, []byte(bodies[i]))
			}
		}()
	}
	for i := range bodies {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, b := range bodies {
		if exp[i].res != nil {
			v.results[b] = exp[i].res
		}
	}

	for i := range ops {
		op, s := &ops[i], &samples[i]
		if op.Kind == opByName {
			v.byName++
		}
		switch {
		case s.Status == http.StatusOK:
		case op.Kind == opByName && s.Status == http.StatusBadRequest &&
			bytes.Contains(s.Body, []byte("unknown network")):
			v.registryMiss++
			continue
		default:
			v.failed++
			if v.failed <= 5 {
				fmt.Printf("failed: %s %s -> status %d %s %s\n", op.Path, clip(op.Body), s.Status, s.Err, clip(s.Body))
			}
			continue
		}
		var want [32]byte
		switch op.Kind {
		case opHealthz:
			v.ok[i] = true
			continue
		case opRegister:
			want = regs[string(op.Body)]
		default:
			e := exp[index[string(op.Body)]]
			if e.err != nil {
				v.problems = append(v.problems, fmt.Sprintf("%s answered 200 but the oracle fails: %v", clip(op.Body), e.err))
				continue
			}
			want = e.digest
		}
		if s.Digest != want {
			v.problems = append(v.problems, fmt.Sprintf("%s %s: answer differs from the in-process oracle (served by %q, cache %q): %s",
				op.Path, clip(op.Body), s.ServedBy, s.CacheStatus, clip(s.Body)))
			continue
		}
		v.ok[i] = true
	}
	return v
}

// clip shortens a body for a diagnostic line.
func clip(b []byte) string {
	const max = 160
	if len(b) > max {
		return string(b[:max]) + "…"
	}
	return string(b)
}
