// Command timely regenerates the paper's tables and figures from the
// reproduction's simulators.
//
// Usage:
//
//	timely list [flags]             enumerate the available experiments
//	timely all [flags]              run every experiment
//	timely <id> [...] [flags]       run specific experiments (fig4, table5, ...)
//	timely evaluate [flags]         evaluate one network on one backend
//
// evaluate runs a single network — a Table III benchmark by name or a
// custom declarative spec from a JSON file (-network @spec.json) — on any
// sim backend and prints the energy/throughput/area (or accuracy) result
// as text or JSON. See "timely evaluate -h" for its flag surface.
//
// Flags (before, between or after the experiment names):
//
//	-format text|csv|json   output format (default text); list supports text|json
//	-out <dir>              write one file per experiment into dir
//	-par N                  run N experiments concurrently (default GOMAXPROCS)
//	-timeout <dur>          abort the run after this long (e.g. 30s; 0 = none)
//	-v                      print a per-experiment timing summary to stderr
//	-cpuprofile <file>      write a pprof CPU profile of the run
//	-memprofile <file>      write a pprof heap profile taken after the run
//
// Experiments execute on a worker pool; output is always emitted in the
// requested order regardless of completion order, so -par does not change
// the bytes produced. -timeout cancels the run's context: experiments (and
// Monte-Carlo work units inside them) that have not started when it fires
// are skipped and the run exits with an error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "timely:", err)
		os.Exit(1)
	}
}

// options are the harness flags shared by "all" and explicit-ID runs.
type options struct {
	format     string
	outDir     string
	par        int
	timeout    time.Duration
	vrbose     bool
	cpuprofile string
	memprofile string
}

func run(args []string, stdout, stderr io.Writer) error {
	for _, a := range args {
		if a == "-h" || a == "-help" || a == "--help" || a == "help" {
			usage(stdout)
			return nil
		}
	}

	// The evaluate subcommand has its own flag surface (network/backend
	// selection rather than experiment harness control), so it is routed
	// before the interleaved experiment-flag parsing below.
	if len(args) > 0 && args[0] == "evaluate" {
		return runEvaluate(args[1:], stdout, stderr)
	}

	fs := flag.NewFlagSet("timely", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.format, "format", "text", "output format: text, csv or json")
	fs.StringVar(&opt.outDir, "out", "", "write one file per experiment into this directory")
	fs.IntVar(&opt.par, "par", runtime.GOMAXPROCS(0), "number of experiments to run concurrently")
	fs.DurationVar(&opt.timeout, "timeout", 0, "abort the run after this long (0 = no timeout)")
	fs.BoolVar(&opt.vrbose, "v", false, "print a per-experiment timing summary to stderr")
	fs.StringVar(&opt.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&opt.memprofile, "memprofile", "", "write a pprof heap profile taken after the run to this file")
	fs.Usage = func() { usage(stderr); fs.PrintDefaults() }

	// Command words (list, all, fig4, ...) and flags may interleave freely:
	// flag.Parse stops at the first non-flag token, so collect that token as
	// a command word and re-parse the remainder until everything is consumed.
	var words []string
	rest := args
	for {
		if err := fs.Parse(rest); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return nil
			}
			return err
		}
		rest = fs.Args()
		if len(rest) == 0 {
			break
		}
		words = append(words, rest[0])
		rest = rest[1:]
	}

	switch {
	case len(words) == 0:
		usage(stdout)
		return nil
	case words[0] == "list":
		return list(stdout, opt.format)
	}

	var exps []experiments.Experiment
	if len(words) == 1 && words[0] == "all" {
		exps = experiments.All()
	} else {
		for _, id := range words {
			e, err := experiments.ByID(id)
			if err != nil {
				return err
			}
			exps = append(exps, e)
		}
	}

	switch opt.format {
	case "text", "csv", "json":
	default:
		return fmt.Errorf("unknown format %q (want text, csv or json)", opt.format)
	}
	// The worker pool treats any par < 1 as one worker; clamp here so the
	// timing summary and docs never see a nonsensical value either.
	if opt.par < 1 {
		opt.par = 1
	}

	if opt.cpuprofile != "" {
		f, err := os.Create(opt.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if opt.memprofile != "" {
		defer func() {
			if err := writeHeapProfile(opt.memprofile); err != nil {
				fmt.Fprintln(stderr, "timely: memprofile:", err)
			}
		}()
	}

	ctx := context.Background()
	if opt.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.timeout)
		defer cancel()
	}
	results := experiments.Run(ctx, exps, experiments.Options{Par: opt.par})
	if opt.vrbose {
		timingSummary(stderr, results)
	}
	if opt.outDir != "" {
		return writeDir(opt.outDir, opt.format, results)
	}
	switch opt.format {
	case "csv":
		return experiments.WriteCSV(stdout, results)
	case "json":
		return experiments.WriteJSON(stdout, results)
	default:
		return experiments.WriteText(stdout, results)
	}
}

// list writes the experiment index and the registered sim backends —
// aligned text by default, or a machine-readable JSON object of
// {backends, experiments} with -format json.
func list(w io.Writer, format string) error {
	switch format {
	case "text":
		for _, e := range experiments.All() {
			fmt.Fprintf(w, "  %-10s %-12s %s\n", e.ID, e.Paper, e.Description)
		}
		fmt.Fprintf(w, "\nbackends (timely evaluate -backend): %s\n", strings.Join(sim.Backends(), ", "))
		return nil
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Backends    []string                 `json:"backends"`
			Experiments []experiments.IndexEntry `json:"experiments"`
		}{sim.Backends(), experiments.Index()})
	}
	return fmt.Errorf("unknown list format %q (want text or json)", format)
}

// writeHeapProfile snapshots the post-run heap (after a final GC, so the
// profile shows retained memory rather than collectable garbage).
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	werr := pprof.WriteHeapProfile(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// timingSummary prints one line per experiment, slowest last, plus a total.
func timingSummary(w io.Writer, results []Result) {
	sorted := append([]Result(nil), results...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Elapsed < sorted[j].Elapsed })
	var total float64
	for _, r := range sorted {
		status := "ok"
		if r.Err != nil {
			status = "FAIL: " + r.Err.Error()
		}
		fmt.Fprintf(w, "%-10s %10.1fms  %s\n", r.Experiment.ID,
			float64(r.Elapsed.Microseconds())/1000, status)
		total += float64(r.Elapsed.Microseconds()) / 1000
	}
	fmt.Fprintf(w, "%-10s %10.1fms  (sum of experiment times)\n", "total", total)
}

// Result aliases the experiments result type for local helpers.
type Result = experiments.Result

// writeDir writes one artifact file per experiment (<id>.txt/.csv/.json)
// into dir, creating it if needed. Failing experiments produce no file; the
// errors are joined and returned after all successes are written.
func writeDir(dir, format string, results []Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating -out directory %q: %w", dir, err)
	}
	ext := map[string]string{"text": "txt", "csv": "csv", "json": "json"}[format]
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", r.Experiment.ID, r.Err))
			continue
		}
		path := filepath.Join(dir, r.Experiment.ID+"."+ext)
		f, err := os.Create(path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		werr := writeOne(f, format, r)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			errs = append(errs, fmt.Errorf("%s: %w", path, werr))
		}
	}
	return errors.Join(errs...)
}

func writeOne(w io.Writer, format string, r Result) error {
	switch format {
	case "csv":
		return experiments.WriteCSV(w, []Result{r})
	case "json":
		return r.Document().RenderJSON(w)
	default:
		return experiments.WriteText(w, []Result{r})
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "timely — regenerate the TIMELY (ISCA 2020) evaluation artifacts")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "usage:")
	fmt.Fprintln(w, "  timely list [flags]        enumerate experiments (text or json)")
	fmt.Fprintln(w, "  timely all [flags]         run every experiment")
	fmt.Fprintln(w, "  timely <id> [...] [flags]  run specific experiments")
	fmt.Fprintln(w, "  timely evaluate -network <name|@spec.json> [flags]")
	fmt.Fprintln(w, "                             evaluate one network (zoo or custom spec)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "flags:")
	fmt.Fprintln(w, "  -format text|csv|json  output format (default text)")
	fmt.Fprintln(w, "  -out <dir>             write one file per experiment into dir")
	fmt.Fprintln(w, "  -par N                 concurrent experiments (default GOMAXPROCS)")
	fmt.Fprintln(w, "  -timeout <dur>         abort the run after this long (0 = none)")
	fmt.Fprintln(w, "  -v                     per-experiment timing summary on stderr")
	fmt.Fprintln(w, "  -cpuprofile <file>     write a pprof CPU profile of the run")
	fmt.Fprintln(w, "  -memprofile <file>     write a pprof heap profile after the run")
}
