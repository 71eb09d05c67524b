package main

// The evaluate subcommand: one-off evaluation of any network — a Table III
// benchmark by name or a custom declarative spec from a JSON file — on any
// backend, without going through the experiment harness.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/trace"
	"repro/sim"
)

// runEvaluate implements "timely evaluate". The network argument is either
// a name the backend knows (zoo benchmark, or "mlp"/"cnn" for the
// functional backend) or @path/to/spec.json carrying a declarative
// network spec.
func runEvaluate(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("timely evaluate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		network  = fs.String("network", "", "network name or @spec.json (required)")
		backend  = fs.String("backend", "timely", "backend: timely, prime, isaac, functional or timing")
		format   = fs.String("format", "text", "output format: text or json")
		bits     = fs.Int("bits", 0, "operand precision (timely; 8 or 16, 0 = default)")
		chips    = fs.Int("chips", 0, "deployment size (0 = default)")
		subChips = fs.Int("subchips", 0, "sub-chips per chip χ (timely; 0 = default)")
		gamma    = fs.Int("gamma", 0, "DTC/TDC sharing factor γ (timely; 0 = default)")
		noise    = fs.Float64("noise", 0, "timing error ε in ps (functional mlp)")
		fault    = fs.Float64("faultrate", 0, "stuck-at cell fraction (functional cnn)")
		seed     = fs.Uint64("seed", 0, "Monte-Carlo base seed (functional)")
		trials   = fs.Int("trials", 0, "Monte-Carlo repeats (functional; 0 = default)")
		images   = fs.Int("images", 0, "images pushed through the event-driven simulation (timing; 0 = default)")
		traceOut = fs.String("trace", "", "write the per-wave occupancy trace to this JSON file (timing)")
		timeout  = fs.Duration("timeout", 0, "abort the evaluation after this long (0 = none)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: timely evaluate -network <name|@spec.json> [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("evaluate: unexpected argument %q", fs.Arg(0))
	}
	if *network == "" {
		fs.Usage()
		return fmt.Errorf("evaluate: -network is required")
	}
	// Fail on an unknown format before spending the evaluation's compute.
	switch *format {
	case "text", "json":
	default:
		return fmt.Errorf("unknown format %q (want text or json)", *format)
	}

	req := sim.EvalRequest{
		Backend:  *backend,
		Bits:     *bits,
		Chips:    *chips,
		SubChips: *subChips,
		Gamma:    *gamma,
		Trials:   *trials,
		Images:   *images,
	}
	// The pointer fields distinguish "flag absent" from an explicit zero
	// (noise 0 is an ideal-timing run), so set them only when passed.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "noise":
			req.NoisePS = noise
		case "faultrate":
			req.FaultRate = fault
		case "seed":
			req.Seed = seed
		}
	})

	if path, ok := strings.CutPrefix(*network, "@"); ok {
		spec, err := readSpec(path)
		if err != nil {
			return err
		}
		req.Spec = spec
	} else {
		req.Network = *network
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var traceLog *trace.Log
	if *traceOut != "" {
		traceLog = &trace.Log{Source: "timing", Network: *network}
		req.Trace = traceLog.Emit
	}
	res, err := sim.Evaluate(ctx, &req)
	if err != nil {
		return err
	}
	if traceLog != nil {
		traceLog.Network = res.Network
		if res.Timing != nil {
			traceLog.CyclePS = res.Timing.CycleNS * 1000
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		if err := traceLog.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}

	if *format == "json" {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	renderResult(stdout, res)
	return nil
}

// readSpec loads and strictly parses a declarative network spec file.
func readSpec(path string) (*sim.NetworkSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("reading network spec: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var spec sim.NetworkSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("parsing network spec %s: %w", path, err)
	}
	return &spec, nil
}

// renderResult writes the human-readable evaluation summary.
func renderResult(w io.Writer, res *sim.EvalResult) {
	line := func(label, format string, args ...any) {
		fmt.Fprintf(w, "%-16s "+format+"\n", append([]any{label}, args...)...)
	}
	line("backend", "%s", res.Backend)
	line("network", "%s", res.Network)
	if res.SpecHash != "" {
		line("spec hash", "%s", res.SpecHash)
	}
	if res.Chips > 0 {
		line("chips", "%d", res.Chips)
	}
	if res.EnergyMJPerImage > 0 {
		line("energy/image", "%.4g mJ", res.EnergyMJPerImage)
		line("avg power", "%.4g W", res.PowerWatts)
		line("throughput", "%.4g images/s", res.ImagesPerSec)
		line("efficiency", "%.4g TOPs/W", res.TOPsPerWatt)
	}
	if res.AreaMM2 > 0 {
		line("area", "%.4g mm2", res.AreaMM2)
	}
	if res.Fits != nil {
		line("fits", "%t", *res.Fits)
	}
	if ts := res.Timing; ts != nil {
		line("images", "%d", ts.Images)
		line("cycle time", "%.0f ns", ts.CycleNS)
		line("cycles/image", "%.4g (analytic %.4g, %+.4f%%)",
			ts.CyclesPerImage, ts.AnalyticCyclesPerImage, ts.ThroughputDeltaPct)
		line("pipeline fill", "%.4g cycles", ts.FillCycles)
		line("latency p50/95/99", "%.3f / %.3f / %.3f ms",
			ts.LatencyP50MS, ts.LatencyP95MS, ts.LatencyP99MS)
		line("makespan", "%.3f ms (%d commands)", ts.MakespanMS, ts.Commands)
		for _, u := range ts.Units {
			line("util "+u.Role, "%.1f%% (%d units)", u.UtilizationPct, u.Units)
		}
	}
	if a := res.Accuracy; a != nil {
		if a.Float > 0 {
			line("float acc", "%.2f%%", a.Float*100)
		}
		line("int8 acc", "%.2f%%", a.Int*100)
		line("analog acc", "%.2f%%", a.Analog*100)
		if a.Trials > 1 {
			line("analog p10/50/90", "%.2f%% / %.2f%% / %.2f%%",
				a.AnalogP10*100, a.AnalogP50*100, a.AnalogP90*100)
		}
		line("loss", "%.2f pp", a.LossPP)
		line("trials", "%d", a.Trials)
		if a.Sampler != "" {
			line("sampler", "%s", a.Sampler)
		}
	}
	line("elapsed", "%.1f ms", res.ElapsedMS)
}
