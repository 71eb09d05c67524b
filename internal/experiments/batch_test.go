package experiments

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/stats"
)

// TestBatchedAccuracyByteIdentity is the ISSUE 9 identity gate: a fused
// multi-seed batch must return, for every member, the exact result the
// single-seed entry point computes — under every sampling regime and at
// every worker count. Per-trial RNG streams are keyed by (seed, trial)
// alone, so the fusion cannot change a draw; this test pins that.
func TestBatchedAccuracyByteIdentity(t *testing.T) {
	samplers := []stats.SamplerVersion{stats.SamplerV1, stats.SamplerV2, stats.SamplerV3}
	pars := []int{1, 2, 8}
	if testing.Short() {
		samplers = []stats.SamplerVersion{stats.SamplerV3}
		pars = []int{2}
	}
	defer setInnerPar(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	// Two members so the fused grid actually interleaves seeds; the seeds
	// reuse the memoized trained models across regimes and par levels.
	seeds := []uint64{2020, 2021}
	const trials = 3
	for _, sampler := range samplers {
		for _, par := range pars {
			setInnerPar(par)
			batch, err := AnalogMLPAccuracyBatch(ctx, seeds, trials, 200, sampler)
			if err != nil {
				t.Fatal(err)
			}
			for m, seed := range seeds {
				single, err := AnalogMLPAccuracy(ctx, seed, trials, 200, sampler)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batch[m], single) {
					t.Errorf("MLP %v par=%d seed=%d: batched %+v != single %+v",
						sampler, par, seed, batch[m], single)
				}
			}
		}
	}
}

// TestBatchedDefectByteIdentity is the CNN half of the identity gate: the
// defect study's fused batch (which takes the deterministic cross-image
// ForwardBatch path) equals the single path member by member.
func TestBatchedDefectByteIdentity(t *testing.T) {
	samplers := []stats.SamplerVersion{stats.SamplerV1, stats.SamplerV2, stats.SamplerV3}
	pars := []int{1, 2, 8}
	if testing.Short() {
		samplers = []stats.SamplerVersion{stats.SamplerV3}
		pars = []int{2}
	}
	defer setInnerPar(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	seeds := []uint64{5, 6}
	const trials = 3
	for _, sampler := range samplers {
		for _, par := range pars {
			setInnerPar(par)
			batch, err := AnalogCNNAccuracyBatch(ctx, seeds, trials, 0.001, sampler)
			if err != nil {
				t.Fatal(err)
			}
			for m, seed := range seeds {
				single, err := AnalogCNNAccuracy(ctx, seed, trials, 0.001, sampler)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batch[m], single) {
					t.Errorf("CNN %v par=%d seed=%d: batched %+v != single %+v",
						sampler, par, seed, batch[m], single)
				}
			}
		}
	}
}

// TestAnalogCNNAccuracyBatchMemoMatchesDirect checks the distinct-CNN memo
// against direct evaluation: at fault rate 0 every draw programs the same
// cells, so the median draw of a three-trial call (memoised, two hits per
// seed) must be exactly the accuracy a single-trial call (no memo)
// evaluates directly.
func TestAnalogCNNAccuracyBatchMemoMatchesDirect(t *testing.T) {
	ctx := context.Background()
	seeds := []uint64{5, 6}
	direct, err := AnalogCNNAccuracyBatch(ctx, seeds, 1, 0, stats.SamplerV3)
	if err != nil {
		t.Fatal(err)
	}
	memoised, err := AnalogCNNAccuracyBatch(ctx, seeds, 3, 0, stats.SamplerV3)
	if err != nil {
		t.Fatal(err)
	}
	for m, seed := range seeds {
		d, r := direct[m], memoised[m]
		if r.AccP50 != d.AnalogAcc {
			t.Errorf("seed %d: memoised %+v, direct accuracy %v", seed, r, d.AnalogAcc)
		}
	}
}
