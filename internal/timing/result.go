package timing

import (
	"context"
	"sort"

	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/trace"
)

// LayerTiming is one pipeline stage's measured timing summary.
type LayerTiming struct {
	// Name is the layer name.
	Name string
	// Instances is the weight-duplication count simulated.
	Instances int
	// SubChips is the sub-chip count of one instance.
	SubChips int
	// WavesPerImage is the per-instance wave count per image.
	WavesPerImage int64
	// ServiceCyclesPerImage is the effective steady-state service time in
	// pipeline cycles (waves / instances) — the analytic stage figure.
	ServiceCyclesPerImage float64
	// UtilizationPct is the stage's pace-setting DTC bank occupancy over
	// the makespan, averaged across instances. The bottleneck stage runs
	// near 100 %; everything else idles in proportion.
	UtilizationPct float64
	// StallCyclesPerImage is the measured fill/starvation stall: the idle
	// cycles of the stage's DTC bank between its first and last wave,
	// per image, averaged across instances. Zero for a stage that streams
	// back-to-back; large when upstream stages or link contention starve
	// it.
	StallCyclesPerImage float64
}

// UnitUtilization aggregates occupancy per command kind across the machine.
type UnitUtilization struct {
	// Kind is the unit role ("dtc_convert", "transfer", ...).
	Kind Kind
	// Units is how many exclusive units of the role the machine has.
	Units int
	// BusyPS is the summed occupancy across those units.
	BusyPS int64
	// UtilizationPct is BusyPS over (units × makespan).
	UtilizationPct float64
}

// Result is one timing simulation's measured outcome.
type Result struct {
	// Network names the simulated model.
	Network string
	// Images is the image count pushed through.
	Images int
	// Fits mirrors the analytic capacity check.
	Fits bool
	// CycleTimePS is the nominal pipeline-cycle time γ·25 ns.
	CycleTimePS float64
	// MakespanPS is when the last image's last write completed.
	MakespanPS int64
	// SteadyIntervalPS is the measured inter-departure interval over the
	// second half of the run.
	SteadyIntervalPS float64
	// CyclesPerImage is SteadyIntervalPS in pipeline cycles — the
	// measured counterpart of the analytic bottleneck.
	CyclesPerImage float64
	// AnalyticCyclesPerImage is the closed-form bottleneck for the same
	// placement and duplication (what accel.Timely reports).
	AnalyticCyclesPerImage float64
	// ImagesPerSec is the measured steady-state throughput.
	ImagesPerSec float64
	// AnalyticImagesPerSec is the closed-form throughput.
	AnalyticImagesPerSec float64
	// ThroughputDeltaPct is (measured − analytic)/analytic × 100.
	ThroughputDeltaPct float64
	// LatencyPS holds every image's end-to-end latency (first stage-0
	// input-load issue to last output write), in image order.
	LatencyPS []float64
	// LatencyP50PS/P95/P99 summarise the latency distribution.
	LatencyP50PS, LatencyP95PS, LatencyP99PS float64
	// FillCycles is the first image's latency in pipeline cycles — the
	// pipeline fill depth.
	FillCycles float64
	// Layers is the per-stage timing detail, in network order.
	Layers []LayerTiming
	// Roles is the per-role utilization aggregate, in command-set order.
	Roles []UnitUtilization
	// Commands is the executed command count.
	Commands int
}

// Run executes the machine's command DAG and aggregates the measured
// timing. When sink is non-nil every command's realised occupancy is
// emitted as a trace.Span in completion order. Run is deterministic:
// equal machines produce identical Results (and identical span streams)
// on every call. ctx cancellation aborts mid-simulation.
func (m *Machine) Run(ctx context.Context, sink func(trace.Span)) (*Result, error) {
	nu := len(m.units)
	busy := make([]int64, nu)
	first := make([]int64, nu)
	last := make([]int64, nu)
	for i := range first {
		first[i] = -1
	}
	imgStart := make([]int64, m.Images)
	imgEnd := make([]int64, m.Images)
	makespan := int64(0)

	visit := func(idx int32, startPS, endPS int64) {
		c := &m.cmds[idx]
		u := c.Unit
		busy[u] += endPS - startPS
		if first[u] < 0 {
			first[u] = startPS
		}
		last[u] = endPS
		if endPS > makespan {
			makespan = endPS
		}
		if idx == m.firstCmd[c.Image] {
			imgStart[c.Image] = startPS
		}
		if idx == m.lastCmd[c.Image] {
			imgEnd[c.Image] = endPS
		}
		if sink != nil {
			stage := ""
			if ts, ok := c.Kind.TraceStage(); ok {
				stage = ts.String()
			}
			sink(trace.Span{
				Unit:    m.units[u].name,
				Op:      c.Kind.String(),
				Stage:   stage,
				Layer:   m.Stages[c.Stage].Layer.Name,
				Image:   int(c.Image),
				Wave0:   c.Wave0,
				Waves:   c.Waves,
				StartPS: startPS,
				EndPS:   endPS,
			})
		}
	}
	if err := Execute(ctx, m.cmds, nu, visit); err != nil {
		return nil, err
	}

	res := &Result{
		Network:                m.Net.Name,
		Images:                 m.Images,
		Fits:                   m.Fits,
		CycleTimePS:            float64(m.Cons.CyclePS),
		MakespanPS:             makespan,
		AnalyticCyclesPerImage: m.AnalyticCyclesPerImage(),
		Commands:               len(m.cmds),
	}

	// Steady-state inter-departure interval over the second half of the
	// departures (sorted: instance round-robin completes out of image
	// order). Departures cluster in bursts of the duplication count, so
	// the window is trimmed to whole rounds — a window cut mid-burst
	// biases the estimate by up to a burst period.
	departs := append([]int64(nil), imgEnd...)
	sort.Slice(departs, func(i, j int) bool { return departs[i] < departs[j] })
	n := len(departs)
	span := n - 1 - n/2
	if dup := m.Stages[len(m.Stages)-1].Instances; dup > 1 && span >= dup {
		span -= span % dup
	}
	if span > 0 {
		res.SteadyIntervalPS = float64(departs[n-1]-departs[n-1-span]) / float64(span)
	} else {
		res.SteadyIntervalPS = float64(makespan) / float64(m.Images)
	}
	res.CyclesPerImage = res.SteadyIntervalPS / res.CycleTimePS
	res.ImagesPerSec = pipeline.Throughput(res.CyclesPerImage, res.CycleTimePS)
	res.AnalyticImagesPerSec = pipeline.Throughput(res.AnalyticCyclesPerImage, res.CycleTimePS)
	if res.AnalyticImagesPerSec > 0 {
		res.ThroughputDeltaPct = (res.ImagesPerSec - res.AnalyticImagesPerSec) / res.AnalyticImagesPerSec * 100
	}

	// Latency distribution via the shared one-sort percentile helper.
	res.LatencyPS = make([]float64, m.Images)
	for i := range imgEnd {
		res.LatencyPS[i] = float64(imgEnd[i] - imgStart[i])
	}
	var pct [3]float64
	stats.PercentilesInto(res.LatencyPS, []float64{50, 95, 99}, pct[:])
	res.LatencyP50PS, res.LatencyP95PS, res.LatencyP99PS = pct[0], pct[1], pct[2]
	res.FillCycles = res.LatencyPS[0] / res.CycleTimePS

	// Per-layer detail: the DTC bank is the stage's pace-setter (the
	// conversion bottleneck of §VI-A), so its occupancy defines stage
	// utilization and its in-window idle time defines the stall figure.
	for si, s := range m.Stages {
		lt := LayerTiming{
			Name:                  s.Layer.Name,
			Instances:             s.Instances,
			SubChips:              s.Placement.SubChips,
			WavesPerImage:         s.WavesPerImage,
			ServiceCyclesPerImage: float64(s.WavesPerImage) / float64(s.Instances),
		}
		var utilSum, stallSum float64
		for ui, u := range m.units {
			if u.stage != int32(si) || u.role != KindDTCConvert {
				continue
			}
			if first[ui] < 0 {
				continue // instance never issued (more instances than images)
			}
			if makespan > 0 {
				utilSum += float64(float64(busy[ui]) / float64(makespan) * 100)
			}
			// Images this instance served under the round-robin.
			served := m.Images / s.Instances
			if int(u.instance) < m.Images%s.Instances {
				served++
			}
			if served > 0 {
				idle := float64(last[ui]-first[ui]-busy[ui]) / res.CycleTimePS
				stallSum += idle / float64(served)
			}
		}
		lt.UtilizationPct = utilSum / float64(s.Instances)
		lt.StallCyclesPerImage = stallSum / float64(s.Instances)
		res.Layers = append(res.Layers, lt)
	}

	// Per-role aggregate utilization.
	for k := KindInputLoad; k < NumKinds; k++ {
		agg := UnitUtilization{Kind: k}
		for ui, u := range m.units {
			if u.role != k {
				continue
			}
			agg.Units++
			agg.BusyPS += busy[ui]
		}
		if agg.Units > 0 && makespan > 0 {
			agg.UtilizationPct = float64(agg.BusyPS) / (float64(agg.Units) * float64(makespan)) * 100
		}
		if agg.Units > 0 {
			res.Roles = append(res.Roles, agg)
		}
	}
	return res, nil
}

// Simulate is the one-call form: build the machine for the network and
// configuration, run it, and return the measured timing.
func Simulate(ctx context.Context, n *model.Network, cfg params.TimelyConfig, opt Options, sink func(trace.Span)) (*Result, error) {
	m, err := Build(n, cfg, opt)
	if err != nil {
		return nil, err
	}
	return m.Run(ctx, sink)
}
