package experiments

import (
	"fmt"
	"testing"

	"repro/internal/params"
	"repro/internal/stats"
)

// BenchmarkAccuracyTrial measures one Monte-Carlo trial of the §VI-B
// accuracy study: noiseTrial, the unit AnalogMLPAccuracyBatch runs,
// mapping the memoized quantised classifier onto functional sub-chips with
// the study's options (design-point noise, 24-bit interface, 12 input
// hops) and evaluating the held-out test split — the noisy wave and its
// Gaussian draws. Training is memoized outside the timed loop.
func BenchmarkAccuracyTrial(b *testing.B) {
	tm, err := accuracyMLP(2020)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := noiseTrial(tm, stats.NewTrialRNG(2020, uint32(i)), params.DefaultXSubBufSigma); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDefectTrial measures one (rate, draw) unit of the stuck-at
// fault ablation: defectDraw, the unit DefectSweep runs — zero-sigma noise
// RNG (the defect study injects faults, not timing noise), fault maps
// drawn at mapping time, deterministic batched evaluation — at two of the
// ablation's low-rate points and its top rate, without the sweep's memo so
// every draw is evaluated. The injection pays O(faults) only on the few
// materialised crossbars and a single binomial draw on every other slot,
// which keeps rate=0.3 close to the low-rate cost.
func BenchmarkDefectTrial(b *testing.B) {
	tc, err := defectCNN(5)
	if err != nil {
		b.Fatal(err)
	}
	for _, rate := range []float64{0.001, 0.01, 0.3} {
		b.Run(fmt.Sprintf("rate=%g", rate), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := defectDraw(tc, 5, i, rate, memo[float64]{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
