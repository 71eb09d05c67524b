// Command timelybench is the repository's benchmark: it builds timelyd
// and timely from the tree it runs in, drives one of three seeded
// workloads against them as child processes, checks every answer, and
// prints each metric by name and unit, closing with one JSON result line.
//
//	serve-hit    open loop through both entries of a two-replica ring,
//	             almost every request a repeat (cache, routing, encode)
//	serve-sweep  open loop against one replica, every request a new
//	             timing, functional or analytic computation
//	suite        closed loop of `timely all -par 1` child processes
//
// Usage (from the repository root; see run.sh and README.md):
//
//	timelybench --workload serve-hit --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 is the separate
// traced run: client spans per request, short segments of the other two
// workloads, and an in-process replay of the same generated inputs
// through each layer's public functions; it reports the per-layer metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// env is what every workload needs: where things are, and the seed.
type env struct {
	out, logDir string
	bins        map[string]string
	seed        uint64
}

// outcome is a workload's result before printing.
type outcome struct {
	metrics Metrics
	// printed are end-to-end metrics shown but not gated.
	printed           Metrics
	attempted, failed int
	problems          []string
}

func (o *outcome) add(attempted, failed int, problems []string) {
	o.attempted += attempted
	o.failed += failed
	o.problems = append(o.problems, problems...)
}

// Run shape.
const (
	serveFleets  = 6 // fresh fleets per serve run; the window is split between them
	sideSeconds  = 5 // length of the other workloads' segments in a traced run
	minSuiteRuns = 2 // stdout identity needs at least two suite runs
)

func main() {
	workload := flag.String("workload", "", "serve-hit, serve-sweep or suite")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	traceRun := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	// The harness re-runs itself as the controls (see control.go).
	control := flag.String("control", "", "run as a control: http or compute")
	addr := flag.String("addr", "", "http control: listen address")
	peers := flag.String("peers", "", "http control: comma-separated ring")
	self := flag.String("self", "", "http control: own entry in -peers")
	flag.Parse()
	switch *control {
	case "":
	case "http":
		fmt.Fprintln(os.Stderr, "timelybench control:", serveControl(*addr, *self, strings.Split(*peers, ",")))
		os.Exit(1)
	case "compute":
		computeControl()
		return
	default:
		fmt.Fprintf(os.Stderr, "timelybench: unknown -control %q\n", *control)
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *traceRun == 1); err != nil {
		fmt.Fprintln(os.Stderr, "timelybench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, traced bool) error {
	switch workload {
	case serveHit.name, serveSweep.name, "suite":
	default:
		return fmt.Errorf("unknown workload %q (want serve-hit, serve-sweep or suite)", workload)
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "timelyd")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	out := os.Getenv("CARGO_TARGET_DIR")
	if out == "" {
		out = ".bench_build"
	}
	if !filepath.IsAbs(out) {
		out = filepath.Join(root, out)
	}
	e := &env{out: out, logDir: filepath.Join(out, "logs"), seed: seed}
	for _, d := range []string{e.logDir, filepath.Join(out, "records"), filepath.Join(out, "traces")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	rec := newRecord(root, out, workload, seed, seconds, traced)
	if e.bins, err = build(root, out, "timelyd", "timely"); err != nil {
		return err
	}

	ctx := context.Background()
	var o *outcome
	if traced {
		o, err = runTraced(ctx, e, workload, seconds)
	} else {
		o, err = runTimed(ctx, e, workload, seconds)
	}
	if err != nil {
		return err
	}
	rec.finish()

	recJSON, _ := json.Marshal(rec)
	name := fmt.Sprintf("%s-seed%d-trace%t-%d.json", workload, seed, traced, time.Now().UnixNano())
	if err := os.WriteFile(filepath.Join(out, "records", name), recJSON, 0o644); err != nil {
		return err
	}
	fmt.Printf("record: %s\n", recJSON)
	fmt.Printf("metrics (%s, seed %d, %gs, trace %t):\n", workload, seed, seconds, traced)
	o.metrics.print(os.Stdout, "  ")
	if len(o.printed) > 0 {
		fmt.Println("printed, not gated:")
		o.printed.print(os.Stdout, "  ")
	}
	for _, p := range o.problems {
		fmt.Println("INCORRECT:", p)
	}
	res, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   Metrics `json:"metrics"`
	}{len(o.problems) == 0, o.attempted, o.failed, o.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	if len(o.problems) > 0 {
		return fmt.Errorf("%d answers failed the correctness gate", len(o.problems))
	}
	return nil
}

// runTimed is the untraced run: the end-to-end metrics of one workload.
func runTimed(ctx context.Context, e *env, workload string, seconds float64) (*outcome, error) {
	o := &outcome{}
	switch workload {
	case "suite":
		r, err := runSuite(ctx, e, seconds, minSuiteRuns, func(int) bool { return false }, true)
		if err != nil {
			return nil, err
		}
		o.metrics, o.printed = r.endToEnd()
		o.add(r.attempted, r.failed, r.problems)
	default:
		r, err := runServe(ctx, e, serveWorkloads[workload], seconds, serveFleets, true)
		if err != nil {
			return nil, err
		}
		o.metrics, o.printed = r.endToEnd()
		o.add(len(r.ops), r.verdict.failed, r.verdict.problems)
	}
	return o, nil
}

// runTraced is the traced run. The chosen workload runs as in the timed
// run, its first half untraced and its second half traced, so the
// difference is the tracing overhead; the other two workloads run short
// segments so every per-layer metric is reported; then the generated
// inputs are replayed in-process through the layers' public functions.
func runTraced(ctx context.Context, e *env, workload string, seconds float64) (*outcome, error) {
	o := &outcome{metrics: Metrics{}}
	client, rep := newTracer(), newTracer()
	runs := map[string]*serveRun{}
	// The chosen workload first, so its layer values win the merge.
	order := []string{workload}
	for _, w := range []string{serveHit.name, serveSweep.name, "suite"} {
		if w != workload {
			order = append(order, w)
		}
	}
	for _, name := range order {
		isMain := name == workload
		secs, fleets := float64(sideSeconds), 1
		if isMain {
			secs, fleets = seconds, serveFleets
		}
		if name == "suite" {
			verbose := func(int) bool { return true }
			minRuns := 1
			if isMain {
				verbose = func(i int) bool { return i%2 == 1 }
				minRuns = minSuiteRuns
			} else {
				secs = 0
			}
			r, err := runSuite(ctx, e, secs, minRuns, verbose, false)
			if err != nil {
				return nil, err
			}
			o.metrics.merge(r.layers())
			o.add(r.attempted, r.failed, r.problems)
			if isMain {
				o.metrics.set("bench.trace_overhead_ms", "ms", median(r.wallsBy(true))-median(r.wallsBy(false)))
			}
			continue
		}
		r, err := runServe(ctx, e, serveWorkloads[name], secs, fleets, false)
		if err != nil {
			return nil, err
		}
		runs[name] = r
		o.metrics.merge(r.layers())
		o.add(len(r.ops), r.verdict.failed, r.verdict.problems)
		from := time.Duration(0)
		if isMain {
			from = time.Duration(r.seconds / 2 * float64(time.Second))
			o.metrics.set("bench.trace_overhead_ms", "ms", r.halfP50(true)-r.halfP50(false))
		}
		clientSpans(client, r, from)
	}
	lm, problems, err := replay(ctx, rep, runs[serveHit.name], runs[serveSweep.name])
	if err != nil {
		return nil, err
	}
	o.metrics.merge(lm)
	o.add(0, 0, problems)
	fmt.Println("replay spans:")
	rep.printSelf(os.Stdout)
	path := filepath.Join(e.out, "traces", fmt.Sprintf("%s-seed%d.json", workload, e.seed))
	if err := writeTrace(path, client, rep); err != nil {
		return nil, err
	}
	fmt.Println("trace written to", path)
	return o, nil
}
