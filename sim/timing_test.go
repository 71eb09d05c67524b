package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/params"
)

// timingJSON evaluates network on the timing backend and returns the
// EvalResult as canonical JSON bytes with the wall-clock field zeroed —
// everything else must be a pure function of the request.
func timingJSON(t testing.TB, network string, images int) []byte {
	t.Helper()
	req := EvalRequest{Backend: "timing", Network: network, Images: images}
	res, err := Evaluate(context.Background(), &req)
	if err != nil {
		t.Fatalf("timing/%s: %v", network, err)
	}
	res.ElapsedMS = 0
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestTimingEvaluateReportsStats(t *testing.T) {
	req := EvalRequest{Backend: "timing", Network: "SqueezeNet", Images: 8}
	res, err := Evaluate(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "timing" || res.Network != "SqueezeNet" {
		t.Errorf("result header = %q/%q", res.Backend, res.Network)
	}
	// The energy ledger rides along from the analytic model.
	if res.EnergyMJPerImage <= 0 || res.ImagesPerSec <= 0 || res.AreaMM2 <= 0 {
		t.Errorf("analytic ledger missing: %+v", res)
	}
	ts := res.Timing
	if ts == nil {
		t.Fatal("no Timing block on the timing backend's result")
	}
	if ts.Images < 8 || ts.Commands <= 0 || ts.CycleNS != 200 {
		t.Errorf("timing header = images %d, commands %d, cycle %v ns",
			ts.Images, ts.Commands, ts.CycleNS)
	}
	if !(ts.LatencyP50MS > 0 && ts.LatencyP50MS <= ts.LatencyP95MS && ts.LatencyP95MS <= ts.LatencyP99MS) {
		t.Errorf("latency percentiles not ordered: p50 %v p95 %v p99 %v",
			ts.LatencyP50MS, ts.LatencyP95MS, ts.LatencyP99MS)
	}
	if len(ts.Layers) == 0 || len(ts.Units) == 0 {
		t.Errorf("per-layer/per-role detail missing (%d layers, %d roles)",
			len(ts.Layers), len(ts.Units))
	}
	// The bottleneck stage paces the pipeline. Utilization is measured over
	// the whole makespan (fill and drain included), so at a short run the
	// peak sits well below 100 % — but it must be the dominant occupancy
	// and stay physical.
	var peak float64
	for _, l := range ts.Layers {
		if l.UtilizationPct > peak {
			peak = l.UtilizationPct
		}
		if l.UtilizationPct < 0 || l.UtilizationPct > 100 {
			t.Errorf("layer %s: unphysical utilization %.1f%%", l.Name, l.UtilizationPct)
		}
		if l.Instances < 1 || l.WavesPerImage < 1 {
			t.Errorf("layer %s: instances %d, waves %d", l.Name, l.Instances, l.WavesPerImage)
		}
	}
	if peak < 30 {
		t.Errorf("no stage dominates occupancy (peak %.1f%%)", peak)
	}
	// A longer run amortises the fill, so the peak must climb toward 100 %.
	longer, err := Evaluate(context.Background(),
		&EvalRequest{Backend: "timing", Network: "SqueezeNet", Images: 48})
	if err != nil {
		t.Fatal(err)
	}
	var longPeak float64
	for _, l := range longer.Timing.Layers {
		if l.UtilizationPct > longPeak {
			longPeak = l.UtilizationPct
		}
	}
	if longPeak <= peak {
		t.Errorf("peak utilization did not climb with run length (%.1f%% -> %.1f%%)", peak, longPeak)
	}
	// The measured rate feeds the throughput-derived fields.
	if res.PowerWatts <= 0 {
		t.Errorf("PowerWatts = %v", res.PowerWatts)
	}
}

// TestTimingVsAnalyticAcrossGamma pins where the event-driven and the
// closed-form models part on VGG-D. A pipeline cycle is γ DTC conversions,
// and every per-wave latency but the output write fits in it; the 160 ns
// output write outlasts the cycle at γ < 160/25, so each wave then takes
// the write's time, not a cycle. The measured initiation interval is the
// analytic one times max(write, γ·conversion)/(γ·conversion), derived here
// from internal/params, and the throughput gap follows from it. The pinned
// figures guard the derivation itself.
func TestTimingVsAnalyticAcrossGamma(t *testing.T) {
	cases := []struct {
		gamma                      int
		cycles, analytic, deltaPct float64
	}{
		{4, 2150.4, 1344, -37.5},
		{5, 1720.32, 1344, -21.875},
		{6, 1433.6, 1344, -6.25},
		{8, 1344, 1344, 0},
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	for _, c := range cases {
		res, err := Evaluate(context.Background(), &EvalRequest{Backend: "timing", Network: "VGG-D", Gamma: c.gamma})
		if err != nil {
			t.Fatal(err)
		}
		ts := res.Timing
		cycle := float64(c.gamma) * params.DTCConversionTime
		want := ts.AnalyticCyclesPerImage * math.Max(params.LatencyOutputWrite, cycle) / cycle
		if !near(ts.CyclesPerImage, want) {
			t.Errorf("γ=%d: cycles/image %v, want analytic %v × max(%v, %v)/%v = %v",
				c.gamma, ts.CyclesPerImage, ts.AnalyticCyclesPerImage, params.LatencyOutputWrite, cycle, cycle, want)
		}
		if delta := (ts.AnalyticCyclesPerImage/ts.CyclesPerImage - 1) * 100; !near(ts.ThroughputDeltaPct, delta) {
			t.Errorf("γ=%d: throughput delta %v%%, want %v%% from the cycle counts", c.gamma, ts.ThroughputDeltaPct, delta)
		}
		if !near(ts.CyclesPerImage, c.cycles) || !near(ts.AnalyticCyclesPerImage, c.analytic) ||
			math.Abs(ts.ThroughputDeltaPct-c.deltaPct) > 1e-9 {
			t.Errorf("γ=%d: cycles/image %v, analytic %v, delta %v%%; pinned %v, %v, %v%%",
				c.gamma, ts.CyclesPerImage, ts.AnalyticCyclesPerImage, ts.ThroughputDeltaPct,
				c.cycles, c.analytic, c.deltaPct)
		}
	}
}

// TestTimingDeterministicAcrossParAndRepeats is the determinism gate for
// the event-driven backend, in the TestFullSuiteDeterministicAcrossPar
// pattern: the rendered result bytes (and the emitted trace stream) must
// be identical across repeated runs and across concurrent evaluation at
// worker counts 2 and 8 — a single differing byte means some event
// escaped the deterministic (time, unit, index) issue order.
func TestTimingDeterministicAcrossParAndRepeats(t *testing.T) {
	const network, images = "SqueezeNet", 6
	ref := timingJSON(t, network, images)
	if len(ref) == 0 {
		t.Fatal("empty reference render")
	}
	for _, par := range []int{1, 2, 8} {
		got := make([][]byte, par)
		var wg sync.WaitGroup
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				got[w] = timingJSON(t, network, images)
			}(w)
		}
		wg.Wait()
		for w, blob := range got {
			if !bytes.Equal(blob, ref) {
				t.Errorf("par %d worker %d: result bytes differ from serial reference (%d vs %d bytes)",
					par, w, len(blob), len(ref))
			}
		}
	}
	// The trace stream is part of the contract: identical spans, in order.
	traceOnce := func() []TraceSpan {
		var spans []TraceSpan
		req := EvalRequest{Backend: "timing", Network: network, Images: images}
		if _, err := Evaluate(context.Background(), &req,
			WithTraceSink(func(s TraceSpan) { spans = append(spans, s) })); err != nil {
			t.Fatal(err)
		}
		return spans
	}
	first := traceOnce()
	second := traceOnce()
	if len(first) == 0 {
		t.Fatal("trace sink saw no spans")
	}
	if len(first) != len(second) {
		t.Fatalf("trace span count differs across runs: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("trace span %d differs across runs: %+v vs %+v", i, first[i], second[i])
		}
	}
}

func TestTimingOptionApplicability(t *testing.T) {
	// Monte-Carlo options have no meaning on the deterministic simulator.
	for _, opt := range []Option{
		WithNoise(10), WithFaultRate(0.01), WithSeed(7), WithTrials(3), WithSampler("v3"),
	} {
		if _, err := Open("timing", opt); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("timing accepted a Monte-Carlo option (err = %v)", err)
		}
	}
	// Simulation-only options are rejected by the closed-form backends.
	sink := func(TraceSpan) {}
	for _, backend := range []string{"timely", "prime", "isaac", "functional"} {
		if _, err := Open(backend, WithImages(4)); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("%s accepted WithImages (err = %v)", backend, err)
		}
		if _, err := Open(backend, WithTraceSink(sink)); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("%s accepted WithTraceSink (err = %v)", backend, err)
		}
	}
	if _, err := Open("timing", WithTraceSink(nil)); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("nil trace sink accepted (err = %v)", err)
	}
	for _, images := range []int{-1, 5000} {
		if _, err := Open("timing", WithImages(images)); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("WithImages(%d) accepted (err = %v)", images, err)
		}
	}
}

// BenchmarkTimingEval measures one full event-driven evaluation (build +
// execute + reduce) and reports the simulation rate in commands/sec.
func BenchmarkTimingEval(b *testing.B) {
	ctx := context.Background()
	for _, network := range []string{"SqueezeNet", "VGG-D"} {
		b.Run(network, func(b *testing.B) {
			var commands int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := EvalRequest{Backend: "timing", Network: network, Images: 8}
				res, err := Evaluate(ctx, &req)
				if err != nil {
					b.Fatal(err)
				}
				commands = res.Timing.Commands
			}
			b.ReportMetric(float64(commands)*float64(b.N)/b.Elapsed().Seconds(), "commands/s")
		})
	}
}
