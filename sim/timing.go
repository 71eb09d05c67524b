package sim

import (
	"context"
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/timing"
	"repro/internal/trace"
)

func init() {
	mustRegister("timing", newTiming)
}

// TraceSpan is one unit-occupancy interval of the event-driven simulation —
// the shared trace vocabulary (see internal/trace.Span) re-exported so
// WithTraceSink callers need not import internal packages.
type TraceSpan = trace.Span

// TimingLayer is one pipeline stage's cycle-level measurement.
type TimingLayer struct {
	// Name is the layer name.
	Name string `json:"name"`
	// Instances is the weight-duplication count simulated.
	Instances int `json:"instances"`
	// SubChips is the sub-chip count of one instance.
	SubChips int `json:"sub_chips"`
	// WavesPerImage is the per-instance wave count per image.
	WavesPerImage int64 `json:"waves_per_image"`
	// ServiceCyclesPerImage is the effective steady-state service time in
	// pipeline cycles (waves / instances).
	ServiceCyclesPerImage float64 `json:"service_cycles_per_image"`
	// UtilizationPct is the stage's pace-setting DTC bank occupancy over
	// the makespan (≈100 % for the bottleneck stage).
	UtilizationPct float64 `json:"utilization_pct"`
	// StallCyclesPerImage is the measured fill/starvation stall per image.
	StallCyclesPerImage float64 `json:"stall_cycles_per_image"`
}

// TimingUnitClass aggregates utilization per hardware-unit role.
type TimingUnitClass struct {
	// Role is the command kind the units execute ("dtc_convert", ...).
	Role string `json:"role"`
	// Units is the exclusive-unit count of the role.
	Units int `json:"units"`
	// UtilizationPct is summed busy time over units × makespan.
	UtilizationPct float64 `json:"utilization_pct"`
}

// TimingStats is the event-driven backend's cycle-level measurement block:
// everything the closed-form analytic model cannot report.
type TimingStats struct {
	// Images is the image count simulated (after instance-round widening).
	Images int `json:"images"`
	// Commands is the executed command count.
	Commands int `json:"commands"`
	// CycleNS is the nominal pipeline-cycle time in ns.
	CycleNS float64 `json:"cycle_ns"`
	// MakespanMS is the virtual wall-clock of the whole run in ms.
	MakespanMS float64 `json:"makespan_ms"`
	// CyclesPerImage is the measured steady-state initiation interval in
	// pipeline cycles; AnalyticCyclesPerImage is the closed-form bottleneck
	// for the same deployment, and ThroughputDeltaPct their relative gap.
	CyclesPerImage         float64 `json:"cycles_per_image"`
	AnalyticCyclesPerImage float64 `json:"analytic_cycles_per_image"`
	ThroughputDeltaPct     float64 `json:"throughput_delta_pct"`
	// FillCycles is the pipeline fill depth (first image's latency) in
	// pipeline cycles.
	FillCycles float64 `json:"fill_cycles"`
	// LatencyP50MS/P95/P99 summarise the per-image end-to-end latency
	// distribution in milliseconds.
	LatencyP50MS float64 `json:"latency_p50_ms"`
	LatencyP95MS float64 `json:"latency_p95_ms"`
	LatencyP99MS float64 `json:"latency_p99_ms"`
	// Layers is the per-stage detail in network order.
	Layers []TimingLayer `json:"layers"`
	// Units is the per-role utilization aggregate in command-set order.
	Units []TimingUnitClass `json:"units"`
}

// timingBackend is the cycle-level event-driven simulator behind
// sim.Open("timing"): the analytic TIMELY energy model composed with the
// internal/timing command-set simulation, so one result carries both the
// closed-form energy ledger and the measured cycle-level behaviour.
type timingBackend struct {
	// energy is the analytic TIMELY view of the same deployment; it keeps
	// its backend name so the shared memoization caches stay keyed under
	// "timely".
	energy analytic
	cfg    Config
}

func newTiming(cfg *Config) (Backend, error) {
	if err := cfg.reject("timing", optNoise, optFaultRate, optSeed, optTrials); err != nil {
		return nil, err
	}
	return &timingBackend{energy: analytic{name: "timely", cfg: *cfg}, cfg: *cfg}, nil
}

// Name implements Backend.
func (t *timingBackend) Name() string { return "timing" }

// Networks implements Backend: the same catalogue as the analytic
// backends — the Table III suite plus registered custom networks.
func (t *timingBackend) Networks() []string { return t.energy.Networks() }

// timelyCfg resolves the deployment the simulation models.
func (t *timingBackend) timelyCfg() params.TimelyConfig {
	cfg := params.DefaultTimely(t.cfg.Bits)
	cfg.Chips = t.cfg.Chips
	if t.cfg.IsSet(optSubChips) {
		cfg.SubChips = t.cfg.SubChips
	}
	if t.cfg.IsSet(optGamma) {
		cfg.Gamma = t.cfg.Gamma
	}
	return cfg
}

// Evaluate implements Backend.
func (t *timingBackend) Evaluate(ctx context.Context, network string) (*EvalResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	if n, err := model.ByName(network); err == nil {
		return t.finish(ctx, start, n, false)
	}
	if n, ok := registeredNetwork(network); ok {
		return t.finish(ctx, start, n, true)
	}
	return nil, fmt.Errorf("%w: %q (backend %q evaluates the Table III suite and registered custom networks)",
		ErrUnknownNetwork, network, "timing")
}

// EvaluateSpec implements SpecEvaluator.
func (t *timingBackend) EvaluateSpec(ctx context.Context, spec *NetworkSpec) (*EvalResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	if spec == nil {
		return nil, fmt.Errorf("%w: nil spec", ErrInvalidSpec)
	}
	n, err := spec.Compile()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidSpec, err)
	}
	return t.finish(ctx, start, n, true)
}

// finish runs the analytic evaluation for the energy ledger, then the
// event-driven simulation for the measured timing, and merges them: the
// throughput-derived fields switch to the measured rate, and the Timing
// block carries everything only the simulation can know.
func (t *timingBackend) finish(ctx context.Context, start time.Time, n *model.Network, custom bool) (*EvalResult, error) {
	out, err := t.energy.finish(start, n, custom)
	if err != nil {
		return nil, err
	}
	res, err := timing.Simulate(ctx, n, t.timelyCfg(), timing.Options{Images: t.cfg.Images}, t.cfg.TraceSink)
	if err != nil {
		return nil, fmt.Errorf("sim: timing/%s: %w", n.Name, err)
	}
	out.Backend = "timing"
	out.ImagesPerSec = res.ImagesPerSec
	out.PowerWatts = out.EnergyMJPerImage * 1e-3 * res.ImagesPerSec
	out.Timing = newTimingStats(res)
	out.ElapsedMS = elapsedMS(start)
	return out, nil
}

// newTimingStats converts the internal measurement into the JSON block.
func newTimingStats(res *timing.Result) *TimingStats {
	ts := &TimingStats{
		Images:                 res.Images,
		Commands:               res.Commands,
		CycleNS:                res.CycleTimePS / 1000,
		MakespanMS:             float64(res.MakespanPS) * 1e-9,
		CyclesPerImage:         res.CyclesPerImage,
		AnalyticCyclesPerImage: res.AnalyticCyclesPerImage,
		ThroughputDeltaPct:     res.ThroughputDeltaPct,
		FillCycles:             res.FillCycles,
		LatencyP50MS:           res.LatencyP50PS * 1e-9,
		LatencyP95MS:           res.LatencyP95PS * 1e-9,
		LatencyP99MS:           res.LatencyP99PS * 1e-9,
	}
	for _, l := range res.Layers {
		ts.Layers = append(ts.Layers, TimingLayer{
			Name:                  l.Name,
			Instances:             l.Instances,
			SubChips:              l.SubChips,
			WavesPerImage:         l.WavesPerImage,
			ServiceCyclesPerImage: l.ServiceCyclesPerImage,
			UtilizationPct:        l.UtilizationPct,
			StallCyclesPerImage:   l.StallCyclesPerImage,
		})
	}
	for _, r := range res.Roles {
		ts.Units = append(ts.Units, TimingUnitClass{
			Role:           r.Kind.String(),
			Units:          r.Units,
			UtilizationPct: r.UtilizationPct,
		})
	}
	return ts
}
