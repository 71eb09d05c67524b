package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/batchq"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/stats"
	"repro/internal/timing"
	"repro/sim"
)

// span is one traced interval. Times are microseconds from the trace's
// origin; Parent indexes the enclosing span, -1 for a root.
type span struct {
	Name   string         `json:"name"`
	Start  float64        `json:"start_us"`
	End    float64        `json:"end_us"`
	Parent int            `json:"parent"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory; they are written out once, at the end.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Start: t.now(), End: -1, Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = t.now() }

// add records a finished span with explicit times.
func (t *tracer) add(name string, parent int, start, end time.Duration, attrs map[string]any) int {
	t.spans = append(t.spans, span{Name: name, Start: float64(start.Nanoseconds()) / 1e3,
		End: float64(end.Nanoseconds()) / 1e3, Parent: parent, Attrs: attrs})
	return len(t.spans) - 1
}

// durations returns the durations (µs) of the spans with the name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// printSelf writes per-name span counts, total time and self time (span
// time minus the time its children cover).
func (t *tracer) printSelf(w io.Writer) {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type agg struct {
		n           int
		total, self float64
	}
	by := map[string]*agg{}
	var names []string
	for i, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.End - s.Start - child[i]
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "  %-34s %8d %12.3f %12.3f\n", n, a.n, a.total/1e3, a.self/1e3)
	}
}

// clientSpans turns a serve run's samples from `from` on into client
// spans: the request from its due time, split into waiting for a
// connection and the round trip, next to the server's elapsed_ms and
// X-Timely-Served-By.
func clientSpans(t *tracer, r *serveRun, from time.Duration) {
	for i := range r.ops {
		op, s := &r.ops[i], &r.samples[i]
		if s.Due < from {
			continue
		}
		attrs := map[string]any{"workload": r.w.name, "path": op.Path, "status": s.Status}
		if s.CacheStatus != "" {
			attrs["cache_status"] = s.CacheStatus
		}
		if s.ServedBy != "" {
			attrs["served_by"] = s.ServedBy
		}
		if s.ElapsedMS >= 0 {
			attrs["elapsed_ms"] = s.ElapsedMS
		}
		root := t.add("client.request", -1, s.Due, s.End, attrs)
		t.add("client.wait", root, s.Due, s.Start, nil)
		t.add("client.round_trip", root, s.Start, s.End, nil)
	}
}

// replayPasses, replayTimingPoints and replayTrials bound the in-process
// replay.
const (
	replayPasses       = 20
	replayTimingPoints = 24
	replayTrials       = 8
)

// replay re-runs the generated inputs in-process through each layer's
// public functions, one span per call (sub-microsecond calls get one span
// per pass over the inputs), and derives the traced per-layer metrics.
// Counts the simulation reports must equal the oracle's.
func replay(ctx context.Context, t *tracer, hit, sweep *serveRun) (Metrics, []string, error) {
	m := Metrics{}
	var problems []string
	root := t.begin("replay", -1)
	defer t.end(root)

	// sim.Keys over every serve-hit evaluation body, as the handler
	// derives them after decoding.
	var batchKeys, cacheKeys []string
	keys := t.begin("replay.keys", root)
	for _, op := range hit.ops {
		if op.Kind != opEval && op.Kind != opByName {
			continue
		}
		var req sim.EvalRequest
		if err := json.Unmarshal(op.Body, &req); err != nil {
			return nil, nil, err
		}
		id := t.begin("sim.EvalRequest.Keys", keys)
		ck, bk, err := req.Keys()
		t.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("Keys(%s): %w", clip(op.Body), err)
		}
		batchKeys = append(batchKeys, bk)
		cacheKeys = append(cacheKeys, ck)
	}
	t.end(keys)
	m.set("sim.keys_us", "us", mean(t.durations("sim.EvalRequest.Keys")))

	// cluster.Ring.Owner over the same batch keys, on the fleet's ring.
	ring, err := cluster.NewRing(hitAddrs, 0)
	if err != nil {
		return nil, nil, err
	}
	sink := 0
	for p := 0; p < replayPasses; p++ {
		id := t.begin("cluster.Ring.Owner/pass", root)
		for _, k := range batchKeys {
			sink += len(ring.Owner(k))
		}
		t.end(id)
	}
	m.set("cluster.owner_ns", "ns", t.total("cluster.Ring.Owner/pass")*1e3/float64(replayPasses*len(batchKeys)))

	// batchq.Cache.Get over the cache keys, on a cache holding them all.
	cache := batchq.NewCache[[]byte](4096)
	for _, k := range cacheKeys {
		cache.Put(k, nil)
	}
	for p := 0; p < replayPasses; p++ {
		id := t.begin("batchq.Cache.Get/pass", root)
		for _, k := range cacheKeys {
			if _, ok := cache.Get(k); ok {
				sink++
			}
		}
		t.end(id)
	}
	m.set("batchq.cache_get_ns", "ns", t.total("batchq.Cache.Get/pass")*1e3/float64(replayPasses*len(cacheKeys)))
	if sink == 0 {
		return nil, nil, fmt.Errorf("replay: ring and cache answered nothing")
	}

	// The response encoding of every serve-sweep result.
	enc := t.begin("replay.encode", root)
	for i := range sweep.ops {
		res := sweep.verdict.results[string(sweep.ops[i].Body)]
		if res == nil {
			continue
		}
		id := t.begin("json.MarshalIndent", enc)
		if _, err := json.MarshalIndent(res, "", "  "); err != nil {
			return nil, nil, err
		}
		t.end(id)
	}
	t.end(enc)
	m.set("sim.encode_us", "us", mean(t.durations("json.MarshalIndent")))

	// timing.Build and Machine.Run over serve-sweep's timing points.
	var builds, runs, cmds, allocs []float64
	seen := map[string]bool{}
	tim := t.begin("replay.timing", root)
	for i := range sweep.ops {
		op := &sweep.ops[i]
		if op.Backend != "timing" || seen[string(op.Body)] || len(cmds) == replayTimingPoints {
			continue
		}
		seen[string(op.Body)] = true
		var req sim.EvalRequest
		if err := json.Unmarshal(op.Body, &req); err != nil {
			return nil, nil, err
		}
		n, err := model.ByName(req.Network)
		if err != nil {
			return nil, nil, err
		}
		cfg := params.DefaultTimely(8)
		cfg.Chips = 1
		if req.Gamma != 0 {
			cfg.Gamma = req.Gamma
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		id := t.begin("timing.Build", tim)
		mach, err := timing.Build(n, cfg, timing.Options{Images: req.Images})
		t.end(id)
		if err != nil {
			return nil, nil, err
		}
		builds = append(builds, t.spans[id].End-t.spans[id].Start)
		id = t.begin("timing.Machine.Run", tim)
		res, err := mach.Run(ctx, nil)
		t.end(id)
		if err != nil {
			return nil, nil, err
		}
		runtime.ReadMemStats(&ms1)
		runs = append(runs, t.spans[id].End-t.spans[id].Start)
		cmds = append(cmds, float64(res.Commands))
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		if want := sweep.verdict.results[string(op.Body)]; want != nil && want.Timing.Commands != res.Commands {
			problems = append(problems, fmt.Sprintf("%s: timing.Run executed %d commands, the served result says %d",
				clip(op.Body), res.Commands, want.Timing.Commands))
		}
	}
	t.end(tim)
	sumRun, sumCmds := 0.0, 0.0
	for i := range runs {
		sumRun += runs[i]
		sumCmds += cmds[i]
	}
	m.set("timing.build_ms", "ms", mean(builds)/1e3)
	m.set("timing.execute_ms", "ms", mean(runs)/1e3)
	m.set("timing.commands", "count", mean(cmds))
	m.set("timing.commands_per_s", "1/s", ratio(sumCmds, sumRun/1e6))
	m.set("timing.alloc_mb_per_eval", "MB", mean(allocs))

	// The functional datapath's trial cost with a warm classifier.
	seed := sweepSeeds[0]
	if _, err := experiments.AnalogMLPAccuracy(ctx, seed, 1, params.DefaultXSubBufSigma, stats.SamplerV3); err != nil {
		return nil, nil, err
	}
	id := t.begin("experiments.AnalogMLPAccuracy", root)
	if _, err := experiments.AnalogMLPAccuracy(ctx, seed, replayTrials, params.DefaultXSubBufSigma, stats.SamplerV3); err != nil {
		return nil, nil, err
	}
	t.end(id)
	m.set("core.trial_ms", "ms", (t.spans[id].End-t.spans[id].Start)/1e3/replayTrials)

	// Classifier training: a cold functional evaluation (caches reset)
	// minus the same evaluation warm, for both workloads.
	train := 0.0
	for _, body := range sweepWarm()[:2] {
		var req sim.EvalRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return nil, nil, err
		}
		experiments.ResetCaches()
		cold := t.begin("sim.Evaluate/cold", root)
		if _, err := sim.Evaluate(ctx, &req); err != nil {
			return nil, nil, err
		}
		t.end(cold)
		warm := t.begin("sim.Evaluate/warm", root)
		if _, err := sim.Evaluate(ctx, &req); err != nil {
			return nil, nil, err
		}
		t.end(warm)
		train += (t.spans[cold].End - t.spans[cold].Start) - (t.spans[warm].End - t.spans[warm].Start)
	}
	m.set("workload.train_ms", "ms", train/1e3)
	return m, problems, nil
}

// writeTrace stores the client and replay spans as one JSON file.
func writeTrace(path string, client, rep *tracer) error {
	b, err := json.Marshal(map[string][]span{"client": client.spans, "replay": rep.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
