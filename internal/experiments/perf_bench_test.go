package experiments

import (
	"fmt"
	"testing"

	"repro/internal/analog"
	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/stats"
)

// BenchmarkAccuracyTrial measures one Monte-Carlo trial of the §VI-B
// accuracy study exactly as AnalogMLPAccuracyBatch runs it: mapping the
// memoized quantised classifier onto functional sub-chips with the study's
// options (design-point noise, 24-bit interface, 12 input hops) and
// evaluating the held-out test split through AccuracyBatch — the noisy
// wave and its Gaussian draws. Training is memoized outside the timed loop.
func BenchmarkAccuracyTrial(b *testing.B) {
	tm, err := accuracyMLP(2020)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := tm.q.MapAnalog(studyOptions(stats.NewTrialRNG(2020, uint32(i)), params.DefaultXSubBufSigma))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.AccuracyBatch(tm.test); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDefectTrial measures one (rate, draw) unit of the stuck-at
// fault ablation exactly as DefectSweep executes it — zero-sigma noise
// RNG (the defect study injects faults, not timing noise), fault maps
// drawn at mapping time, deterministic batched evaluation — at two of the
// ablation's low-rate points and its top rate. The injection pays
// O(faults) only on the few materialised crossbars and a single binomial
// draw on every other slot, which keeps rate=0.3 close to the low-rate
// cost.
func BenchmarkDefectTrial(b *testing.B) {
	tc, err := defectCNN(5)
	if err != nil {
		b.Fatal(err)
	}
	for _, rate := range []float64{0.001, 0.01, 0.3} {
		b.Run(fmt.Sprintf("rate=%g", rate), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := tc.cnn.MapAnalog(core.Options{
					Noise:         &analog.Noise{RNG: stats.NewTrialRNG(5, uint32(i))},
					InterfaceBits: 24,
				}, rate)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := a.Accuracy(tc.test); err != nil {
					b.Fatal(err)
				}
				a.Release()
			}
		})
	}
}
