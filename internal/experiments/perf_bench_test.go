package experiments

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/params"
	"repro/internal/stats"
)

// BenchmarkAccuracyTrial measures one Monte-Carlo trial of the §VI-B
// accuracy study: a one-point noiseGroup, the unit AnalogMLPAccuracyBatch runs,
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
		if _, err := noiseGroup(tm, stats.NewTrialRNG(2020, uint32(i)), []float64{params.DefaultXSubBufSigma}); err != nil {
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
	patches := tc.cnn.PatchCodes(tc.test)
	for _, rate := range []float64{0.001, 0.01, 0.3} {
		b.Run(fmt.Sprintf("rate=%g", rate), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := defectDraw(tc, patches, 5, i, rate, memo[float64]{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNoiseSweep measures the §VI-B noise ablation at the suite's
// nine ε points: RunNoiseSweep with the classifier trained outside the
// timed loop, so each iteration is the draw-signature groups' chunks
// mapped and scored in lockstep. The worker pool takes the benchmark's
// GOMAXPROCS, so -cpu 1 runs one chunk per group, as timely all -par 1
// does, and -cpu N up to N chunks per group.
func BenchmarkNoiseSweep(b *testing.B) {
	if _, err := accuracyMLP(2020); err != nil {
		b.Fatal(err)
	}
	defer setInnerPar(innerPool.Load().size)
	setInnerPar(runtime.GOMAXPROCS(0))
	eps := []float64{0, 5, 10, 20, 50, 100, 200, 400, 800}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunNoiseSweep(context.Background(), 2020, eps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDefectSweep measures the stuck-at fault ablation at its six
// rates: DefectSweep with the CNN trained outside the timed loop, so each
// iteration is the test set's patch codes, the 30 fault-map draws and
// their memoised evaluations.
func BenchmarkDefectSweep(b *testing.B) {
	if _, err := defectCNN(5); err != nil {
		b.Fatal(err)
	}
	rates := []float64{0, 0.001, 0.01, 0.05, 0.15, 0.30}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DefectSweep(context.Background(), 5, rates); err != nil {
			b.Fatal(err)
		}
	}
}
