package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// suiteLimit is the goodput latency limit of one `timely all -par 1`.
const suiteLimit = 60 * time.Second

// suiteSetupArgs is the suite's set-up: a cold `timely` process up to its
// first trained classifier, the MLP the accuracy experiments train before
// their Monte-Carlo, with one trial. The CLI keeps no warm state, so every
// `timely all` pays this. Spawning alone (`timely list`, about 2 ms) moved
// by 29% between two sets of runs as the host's load changed; this, mostly
// training, moved by 11%.
var suiteSetupArgs = []string{"evaluate", "-backend", "functional", "-network", "mlp", "-trials", "1", "-format", "json"}

// suiteRun is a closed loop of `timely all -par 1` child processes.
type suiteRun struct {
	setups      []float64 // s
	walls, cpus []float64 // ms, one per successful run
	// ctlWalls and ctlCPUs are the compute control's, run once before
	// the first run and once after each successful one, so successful
	// run i lies between controls i and i+1 (paired runs only).
	ctlWalls, ctlCPUs []float64
	verbose           []bool // per successful run: ran with -v
	// experiments holds each -v run's per-experiment elapsed times (ms).
	experiments []map[string]float64
	rssMB       []float64 // Maxrss, one per successful run
	attempted   int
	failed      int
	problems    []string
}

// runSuite runs the suite back to back until seconds have passed, and at
// least minRuns times. verbose(i) picks the runs that pass -v. When
// paired, the compute control (control.go) runs before the first run and
// after each successful one. Set-up (suiteSetupArgs) is measured once
// before each suite and control run, and its output must repeat exactly,
// as every run's stdout must equal the first one's.
func runSuite(ctx context.Context, e *env, seconds float64, minRuns int, verbose func(i int) bool, paired bool) (*suiteRun, error) {
	run := &suiteRun{}
	bin := e.bins["timely"]
	var setupOut []byte
	setup := func() error {
		var stdout bytes.Buffer
		cmd := exec.CommandContext(ctx, bin, suiteSetupArgs...)
		cmd.Dir = e.out
		cmd.Stdout = &stdout
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("suite set-up: timely %s: %w", strings.Join(suiteSetupArgs, " "), err)
		}
		run.setups = append(run.setups, time.Since(t0).Seconds())
		out, elapsed := cutElapsed(stdout.Bytes())
		switch {
		case elapsed < 0:
			run.problems = append(run.problems, "suite set-up printed no elapsed_ms: "+clip(stdout.Bytes()))
		case setupOut == nil:
			setupOut = out
		case !bytes.Equal(out, setupOut):
			run.problems = append(run.problems, "suite set-up output differs from the first one's")
		}
		return nil
	}
	control := func() error {
		if !paired {
			return nil
		}
		if err := setup(); err != nil {
			return err
		}
		c, err := runComputeControl()
		if err != nil {
			return err
		}
		run.ctlWalls = append(run.ctlWalls, ms(c.wall))
		run.ctlCPUs = append(run.ctlCPUs, ms(c.cpu))
		return nil
	}
	if err := control(); err != nil {
		return nil, err
	}
	var first []byte
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start).Seconds() < seconds; i++ {
		if err := setup(); err != nil {
			return nil, err
		}
		args := []string{"all", "-par", "1"}
		v := verbose(i)
		if v {
			args = append(args, "-v")
		}
		var stdout, stderr bytes.Buffer
		cmd := exec.CommandContext(ctx, bin, args...)
		cmd.Dir = e.out
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		run.attempted++
		t0 := time.Now()
		err := cmd.Run()
		wall := time.Since(t0)
		if err != nil {
			run.failed++
			fmt.Printf("failed: timely %s: %v: %s\n", strings.Join(args, " "), err, clip(stderr.Bytes()))
			continue
		}
		if first == nil {
			first = stdout.Bytes()
		} else if !bytes.Equal(first, stdout.Bytes()) {
			run.problems = append(run.problems, fmt.Sprintf("timely all -par 1 run %d: stdout differs from run 0", i))
		}
		ps := cmd.ProcessState
		run.walls = append(run.walls, ms(wall))
		run.cpus = append(run.cpus, ms(ps.UserTime()+ps.SystemTime()))
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			run.rssMB = append(run.rssMB, float64(ru.Maxrss)/1024)
		}
		run.verbose = append(run.verbose, v)
		if err := control(); err != nil {
			return nil, err
		}
		if v {
			exps, err := parseVerbose(stderr.Bytes())
			if err != nil {
				return nil, err
			}
			run.experiments = append(run.experiments, exps)
		}
	}
	return run, nil
}

// parseVerbose reads `timely all -v`'s timing summary: one
// "<id> <elapsed>ms ok" line per experiment and a closing total line.
func parseVerbose(stderr []byte) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(string(stderr), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] == "total" || !strings.HasSuffix(f[1], "ms") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("parsing timely -v line %q: %w", line, err)
		}
		out[f[0]] = v
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("timely all -v printed no timing summary")
	}
	return out, nil
}

// endToEnd: one suite run is one operation. The gated CPU and latency
// figures are the medians over runs of the run's value ÷ the mean of the
// two controls around it.
func (r *suiteRun) endToEnd() (gated, printed Metrics) {
	good, busy := 0, 0.0
	for _, w := range r.walls {
		busy += w / 1000
		if w <= ms(suiteLimit) {
			good++
		}
	}
	fmt.Printf("suite per run: cpu_ms %.1f, wall_ms %.1f\n", r.cpus, r.walls)
	fmt.Printf("suite control per run: cpu_ms %.1f, wall_ms %.1f\n", r.ctlCPUs, r.ctlWalls)
	m := Metrics{}
	m.set("cpu_per_req_rel", "ratio", median(bracketRatios(r.cpus, r.ctlCPUs)))
	m.set("latency_p50_rel", "ratio", median(bracketRatios(r.walls, r.ctlWalls)))
	m.set("peak_rss_mb", "MB", median(r.rssMB))
	m.set("setup_s", "s", median(r.setups))
	p := Metrics{}
	p.set("goodput_rps", "1/s", ratio(float64(good), busy))
	p.set("latency_p50_ms", "ms", median(r.walls))
	p.set("latency_p99_ms", "ms", percentile(r.walls, 99))
	p.set("server_cpu_ms_per_req", "ms", mean(r.cpus))
	p.set("error_ratio", "ratio", ratio(float64(r.failed), float64(r.attempted)))
	p.set("suite_s", "s", median(r.walls)/1000)
	return m, p
}

// layers splits the -v runs' wall time into the two heavy experiments,
// the rest of the experiments, and the CLI around them.
func (r *suiteRun) layers() Metrics {
	var abl, acc, rest, overhead []float64
	k := 0
	for i, v := range r.verbose {
		if !v {
			continue
		}
		exps := r.experiments[k]
		k++
		sum := 0.0
		for _, x := range exps {
			sum += x
		}
		abl = append(abl, exps["ablation"])
		acc = append(acc, exps["accuracy"])
		rest = append(rest, sum-exps["ablation"]-exps["accuracy"])
		overhead = append(overhead, r.walls[i]-sum)
	}
	m := Metrics{}
	m.set("experiments.ablation_ms", "ms", median(abl))
	m.set("experiments.accuracy_ms", "ms", median(acc))
	m.set("experiments.rest_ms", "ms", median(rest))
	m.set("timely.overhead_ms", "ms", median(overhead))
	return m
}

// wallsBy returns the walls of the runs with or without -v.
func (r *suiteRun) wallsBy(verbose bool) []float64 {
	var out []float64
	for i, v := range r.verbose {
		if v == verbose {
			out = append(out, r.walls[i])
		}
	}
	return out
}
