package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"
)

// serveWorkload describes one open-loop workload against timelyd.
type serveWorkload struct {
	name  string
	addrs []string
	// env is added to each replica's environment.
	env      []string
	flags    func(i int) []string
	warm     func(seed uint64) [][]byte
	schedule func(seed uint64, seconds float64) []Op
	limit    time.Duration
}

var serveHit = serveWorkload{
	name:  "serve-hit",
	addrs: hitAddrs,
	// One core per replica, as two replicas would be deployed on a
	// two-core host. With two Ps each, CPU per request swung between
	// 0.27 and 0.41 ms over ten runs of the same code; with one, between
	// 0.27 and 0.33 ms over eight.
	env: []string{"GOMAXPROCS=1"},
	flags: func(i int) []string {
		return []string{"-peers", strings.Join(hitAddrs, ","), "-self", hitAddrs[i]}
	},
	warm:     hitWarm,
	schedule: hitSchedule,
	limit:    hitLimit,
}

var serveSweep = serveWorkload{
	name:     "serve-sweep",
	addrs:    []string{sweepAddr},
	flags:    func(int) []string { return nil },
	warm:     func(uint64) [][]byte { return sweepWarm() },
	schedule: sweepSchedule,
	limit:    sweepLimit,
}

var serveWorkloads = map[string]serveWorkload{serveHit.name: serveHit, serveSweep.name: serveSweep}

// serveRun is one measured open-loop run and everything read around it.
// The run repeats one seeded schedule on several fresh fleets in turn;
// ops and samples hold every repeat back to back.
type serveRun struct {
	w       serveWorkload
	seconds float64 // length of one fleet's schedule
	ops     []Op
	samples []Sample
	verdict verdict
	// One value per fleet: set-up time (s), CPU per completed request
	// (ms), p50 latency of the evaluations (ms) and the replicas' summed
	// VmHWM (MB).
	setups, cpuPerReq, p50, rssMB []float64
	// ctlCPUPerReq and ctlP50 are the same figures for the control
	// fleets, driven once before the first fleet and once after each, so
	// fleet k runs between controls k and k+1 (paired runs only).
	ctlCPUPerReq, ctlP50 []float64
	// window is the summed time from each schedule's start to its last
	// answer.
	window time.Duration
	// counters is the growth of the /metricz counters, summed over fleets.
	counters map[string]int64
}

// runServe measures w on `fleets` fresh fleets in turn, each driven
// through the same schedule of seconds/fleets. Each fleet is spawned and
// warmed (one setup_s sample), driven, read (CPU, RSS, counters) and
// stopped. When paired, a control fleet (control.go) gets the same
// schedule before the first fleet and after each one. Every answer of
// timelyd is gated at the end.
func runServe(ctx context.Context, e *env, w serveWorkload, seconds float64, fleets int, paired bool) (*serveRun, error) {
	seg := seconds / float64(fleets)
	ops := w.schedule(e.seed, seg)
	warm := w.warm(e.seed)
	run := &serveRun{w: w, seconds: seg, counters: map[string]int64{}}
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the harness binary for the control: %w", err)
	}
	control := func() error {
		if !paired {
			return nil
		}
		cpu, p50, err := driveControl(ctx, e, self, w, ops)
		if err != nil {
			return err
		}
		run.ctlCPUPerReq = append(run.ctlCPUPerReq, cpu)
		run.ctlP50 = append(run.ctlP50, p50)
		return nil
	}
	if err := control(); err != nil {
		return nil, err
	}
	for k := 0; k < fleets; k++ {
		if err := run.measure(ctx, e, ops, warm); err != nil {
			return nil, err
		}
		if err := control(); err != nil {
			return nil, err
		}
	}
	run.verdict = gate(ctx, run.ops, run.samples, workers)
	fmt.Printf("%s per fleet: cpu_ms_per_req %.4f, p50_ms %.4f, setup_s %.3f, rss_mb %.1f\n",
		w.name, run.cpuPerReq, run.p50, run.setups, run.rssMB)
	if paired {
		fmt.Printf("%s control per fleet: cpu_ms_per_req %.4f, p50_ms %.4f\n", w.name, run.ctlCPUPerReq, run.ctlP50)
	}
	return run, nil
}

// measure sets one fleet up, drives ops against it, records what it read
// and stops the fleet.
func (run *serveRun) measure(ctx context.Context, e *env, ops []Op, warm [][]byte) error {
	w := run.w
	t0 := time.Now()
	f, err := startFleet(e.bins["timelyd"], e.logDir, w.addrs, w.env, w.flags)
	if err != nil {
		return err
	}
	defer f.stop()
	for _, b := range warm {
		status, body, err := post(f[0].url()+"/v1/evaluate", b)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("%s warm-up %s: status %d %v %s", w.name, clip(b), status, err, clip(body))
		}
	}
	run.setups = append(run.setups, time.Since(t0).Seconds())
	before, err := f.metricz()
	if err != nil {
		return err
	}
	samples, cpu, err := driveFleet(ctx, f, ops)
	if err != nil {
		return err
	}
	rss, err := f.peakRSS()
	if err != nil {
		return err
	}
	after, err := f.metricz()
	if err != nil {
		return err
	}
	var window time.Duration
	for i := range samples {
		window = max(window, samples[i].End)
	}
	for name, v := range after {
		run.counters[name] += v - before[name]
	}
	run.cpuPerReq = append(run.cpuPerReq, cpu)
	run.p50 = append(run.p50, evalP50(ops, samples))
	run.rssMB = append(run.rssMB, rss)
	run.window += window
	run.ops = append(run.ops, ops...)
	run.samples = append(run.samples, samples...)
	return nil
}

// driveFleet drives ops against f and returns the samples and the fleet's
// CPU time per completed request (ms).
func driveFleet(ctx context.Context, f fleet, ops []Op) ([]Sample, float64, error) {
	cpu0, err := f.cpuTime()
	if err != nil {
		return nil, 0, err
	}
	samples := Drive(ctx, f.urls(), workers, ops)
	cpu1, err := f.cpuTime()
	if err != nil {
		return nil, 0, err
	}
	completed := 0
	for i := range samples {
		if samples[i].Status != 0 {
			completed++
		}
	}
	return samples, ratio(ms(cpu1-cpu0), float64(completed)), nil
}

// driveControl drives ops against a fresh control fleet on w's addresses
// and returns its CPU time per completed request and its p50 latency
// (ms). Every control answer must be a 200.
func driveControl(ctx context.Context, e *env, self string, w serveWorkload, ops []Op) (cpu, p50 float64, err error) {
	f, err := startFleet(self, e.logDir, w.addrs, w.env, func(i int) []string { return controlFlags(w.addrs, i) })
	if err != nil {
		return 0, 0, err
	}
	defer f.stop()
	samples, cpu, err := driveFleet(ctx, f, ops)
	if err != nil {
		return 0, 0, err
	}
	for i := range samples {
		if s := &samples[i]; s.Status != http.StatusOK {
			return 0, 0, fmt.Errorf("control answered %s with status %d %s", ops[i].Path, s.Status, s.Err)
		}
	}
	return cpu, evalP50(ops, samples), nil
}

// evalP50 is the p50 latency (ms, from the due time) of the evaluations
// among ops.
func evalP50(ops []Op, samples []Sample) float64 {
	var lat []float64
	for i := range ops {
		if ops[i].Kind != opHealthz {
			lat = append(lat, ms(samples[i].Latency()))
		}
	}
	return median(lat)
}

// delta is a counter's growth over the measured windows.
func (r *serveRun) delta(name string) float64 { return float64(r.counters[name]) }

// endToEnd computes the gated metrics and the ones only printed (see
// README.md). The gated CPU and latency figures are the medians over
// fleets of timelyd's value ÷ the mean of the two controls around it. Raw latency counts from each
// request's due time over the workload's requests that succeeded with
// correct bytes; /healthz probes are measured separately.
func (r *serveRun) endToEnd() (gated, printed Metrics) {
	var lat []float64
	good := 0
	for i := range r.ops {
		s := &r.samples[i]
		if r.ops[i].Kind == opHealthz || !r.verdict.ok[i] {
			continue
		}
		lat = append(lat, ms(s.Latency()))
		if s.Latency() <= r.w.limit {
			good++
		}
	}
	m := Metrics{}
	m.set("cpu_per_req_rel", "ratio", median(bracketRatios(r.cpuPerReq, r.ctlCPUPerReq)))
	m.set("latency_p50_rel", "ratio", median(bracketRatios(r.p50, r.ctlP50)))
	m.set("peak_rss_mb", "MB", median(r.rssMB))
	m.set("setup_s", "s", median(r.setups))
	p := Metrics{}
	p.set("goodput_rps", "1/s", ratio(float64(good), r.window.Seconds()))
	p.set("latency_p50_ms", "ms", percentile(lat, 50))
	p.set("latency_p99_ms", "ms", percentile(lat, 99))
	p.set("server_cpu_ms_per_req", "ms", median(r.cpuPerReq))
	p.set("error_ratio", "ratio", ratio(float64(r.verdict.failed), float64(len(r.ops))))
	return m, p
}

// layers computes the per-layer metrics the run's answers and counters
// give.
func (r *serveRun) layers() Metrics {
	m := Metrics{}
	var healthz, register, lag, hitLocal, hitFwd []float64
	overhead := map[string][]float64{}
	elapsed := map[string][]float64{}
	evals, ok200, hits, coalesced := 0, 0, 0, 0
	for i := range r.ops {
		op, s := &r.ops[i], &r.samples[i]
		lag = append(lag, ms(s.Queued-s.Due))
		if !r.verdict.ok[i] {
			if op.Kind == opEval || op.Kind == opByName {
				evals++
			}
			continue
		}
		switch op.Kind {
		case opHealthz:
			healthz = append(healthz, ms(s.RoundTrip()))
			continue
		case opRegister:
			register = append(register, ms(s.RoundTrip()))
			continue
		}
		evals++
		ok200++
		switch s.CacheStatus {
		case "hit":
			hits++
			if s.ServedBy == r.w.addrs[op.Entry] {
				hitLocal = append(hitLocal, ms(s.RoundTrip()))
			} else if s.ServedBy != "" {
				hitFwd = append(hitFwd, ms(s.RoundTrip()))
			}
		case "coalesced":
			coalesced++
		case "miss":
			class := backendClass(op.Backend)
			overhead[class] = append(overhead[class], ms(s.RoundTrip())-s.ElapsedMS)
			elapsed[class] = append(elapsed[class], s.ElapsedMS)
		}
	}
	m.set("loadgen.send_lag_p99_ms", "ms", percentile(lag, 99))
	switch r.w.name {
	case serveHit.name:
		m.set("batchq.cache_hit_ratio", "ratio", ratio(float64(hits), float64(ok200)))
		m.set("timelyd.healthz_p50_ms", "ms", median(healthz))
		m.set("timelyd.register_ms", "ms", median(register))
		m.set("timelyd.registry_error_ratio", "ratio", ratio(float64(r.verdict.registryMiss), float64(r.verdict.byName)))
		m.set("cluster.forwarded_ratio", "ratio", ratio(r.delta("forwarded"), float64(evals)))
		m.set("cluster.hop_ms", "ms", median(hitFwd)-median(hitLocal))
	case serveSweep.name:
		for _, c := range []string{"analytic", "functional", "timing"} {
			m.set("timelyd.overhead_ms_"+c, "ms", median(overhead[c]))
		}
		m.set("batchq.coalesced_ratio", "ratio", ratio(float64(coalesced), float64(ok200)))
		m.set("batchq.batch_size_mean", "count", ratio(r.delta("batched_requests"), r.delta("batches")))
		m.set("serve.queue_wait_ms_mean", "ms", ratio(r.delta("queue_wait_ms"), r.delta("admitted")))
		m.set("sim.functional_elapsed_ms", "ms", median(elapsed["functional"]))
		m.set("sim.timing_elapsed_ms", "ms", median(elapsed["timing"]))
	}
	return m
}

// backendClass folds the analytic backends into one class.
func backendClass(b string) string {
	switch b {
	case "functional", "timing":
		return b
	}
	return "analytic"
}

// halfP50 is the p50 latency over the second half (or first half) of
// each fleet's schedule, the split a traced run uses to measure its own
// overhead.
func (r *serveRun) halfP50(second bool) float64 {
	mid := time.Duration(r.seconds / 2 * float64(time.Second))
	var lat []float64
	for i := range r.ops {
		s := &r.samples[i]
		if r.ops[i].Kind == opHealthz || !r.verdict.ok[i] || (s.Due >= mid) != second {
			continue
		}
		lat = append(lat, ms(s.Latency()))
	}
	return median(lat)
}
