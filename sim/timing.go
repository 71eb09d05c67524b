package sim

import (
	"context"
	"fmt"
	"time"

	"repro/internal/timing"
	"repro/internal/trace"
)

// TraceSpan is one unit-occupancy interval of the event-driven simulation —
// the shared trace vocabulary (see internal/trace.Span) re-exported so
// EvalRequest.Trace callers need not import internal packages.
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

// evaluateTiming is the "timing" backend: the analytic TIMELY energy
// model composed with the internal/timing command-set simulation, so one
// result carries both the closed-form energy ledger and the measured
// cycle-level behaviour. The analytic view keeps the name "timely", so the
// shared memoization caches stay keyed under it; the throughput-derived
// fields then switch to the measured rate, and the Timing block carries
// everything only the simulation can know.
func evaluateTiming(ctx context.Context, c config, req *EvalRequest) (*EvalResult, error) {
	start := time.Now()
	n, custom, err := lookupNetwork(ctx, req)
	if err != nil {
		return nil, err
	}
	out, err := analytic("timely", c, n, custom)
	if err != nil {
		return nil, err
	}
	res, err := timing.Simulate(ctx, n, timelyConfig(c), timing.Options{Images: c.images}, c.trace)
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
