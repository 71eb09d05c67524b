package experiments

import (
	"fmt"
	"testing"

	"repro/internal/analog"
	"repro/internal/core"
	"repro/internal/stats"
)

// samplerBenchRegimes are the sampling regimes every Monte-Carlo
// benchmark below runs under, so the bench output is a per-regime cost
// comparison (the CI bench-smoke step uploads it as an artifact).
var samplerBenchRegimes = []stats.SamplerVersion{stats.SamplerV1, stats.SamplerV2, stats.SamplerV3}

// BenchmarkAccuracyTrial measures one Monte-Carlo trial of the §VI-B
// accuracy study under each sampling regime: mapping the memoized
// quantised classifier onto functional sub-chips and evaluating the
// held-out test split through the analog path at the design-point noise
// (the regime's Gaussian hot path — Box-Muller vs Ziggurat — dominates
// the delta). Training is memoized outside the timed loop.
func BenchmarkAccuracyTrial(b *testing.B) {
	tm, err := accuracyMLP(2020)
	if err != nil {
		b.Fatal(err)
	}
	for _, sampler := range samplerBenchRegimes {
		b.Run(fmt.Sprintf("sampler=%s", sampler), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := tm.q.MapAnalog(core.Options{
					Noise:         analog.DefaultNoiseSampler(2020+uint64(i)*7919, sampler),
					InterfaceBits: 24,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := a.Accuracy(tm.test); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDefectTrial measures one (rate, draw) unit of the stuck-at
// fault ablation exactly as DefectSweep executes it — zero-sigma noise
// RNG (the defect study injects faults, not timing noise), fault maps
// drawn at mapping time, deterministic batched evaluation — at two of the
// ablation's low-rate points and its top rate under each sampling regime.
// The v1 regime spends one deviate per cell of the 16×12 crossbar grid
// (~12.6M per trial) regardless of rate; v2 spends one binomial draw per
// crossbar plus O(faults) position/polarity draws, so its cost grows with
// the rate; the counter-based v3 pays O(faults) only on the few
// materialised crossbars and a single binomial draw on every other slot,
// which keeps rate=0.3 close to the low-rate cost.
func BenchmarkDefectTrial(b *testing.B) {
	tc, err := defectCNN(5)
	if err != nil {
		b.Fatal(err)
	}
	for _, rate := range []float64{0.001, 0.01, 0.3} {
		for _, sampler := range samplerBenchRegimes {
			b.Run(fmt.Sprintf("rate=%g/sampler=%s", rate, sampler), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					a, err := tc.cnn.MapAnalog(core.Options{
						Noise:         &analog.Noise{RNG: stats.NewRNGSampler(uint64(i)+1, sampler)},
						InterfaceBits: 24,
					}, rate)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := a.Accuracy(tc.test); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
