package experiments

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// TestBatchedAccuracyByteIdentity is the ISSUE 9 identity gate: a fused
// multi-seed batch must return, for every member, the exact result the
// single-seed entry point computes at every worker count. Per-trial RNG
// streams are keyed by (seed, trial) alone, so the fusion cannot change a
// draw; this test pins that.
func TestBatchedAccuracyByteIdentity(t *testing.T) {
	pars := []int{1, 2, 8}
	if testing.Short() {
		pars = []int{2}
	}
	defer setInnerPar(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	// Two members so the fused grid actually interleaves seeds; the seeds
	// reuse the memoized trained models across par levels.
	seeds := []uint64{2020, 2021}
	const trials = 3
	for _, par := range pars {
		setInnerPar(par)
		batch, err := AnalogMLPAccuracyBatch(ctx, seeds, trials, 200)
		if err != nil {
			t.Fatal(err)
		}
		for m, seed := range seeds {
			single, err := AnalogMLPAccuracy(ctx, seed, trials, 200, stats.SamplerV3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batch[m], single) {
				t.Errorf("MLP par=%d seed=%d: batched %+v != single %+v", par, seed, batch[m], single)
			}
		}
	}
}

// TestBatchedDefectByteIdentity is the CNN half of the identity gate: the
// defect study's fused batch (which takes the deterministic cross-image
// ForwardBatch path) equals the single path member by member.
func TestBatchedDefectByteIdentity(t *testing.T) {
	pars := []int{1, 2, 8}
	if testing.Short() {
		pars = []int{2}
	}
	defer setInnerPar(runtime.GOMAXPROCS(0))
	ctx := context.Background()
	seeds := []uint64{5, 6}
	const trials = 3
	for _, par := range pars {
		setInnerPar(par)
		batch, err := AnalogCNNAccuracyBatch(ctx, seeds, trials, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		for m, seed := range seeds {
			single, err := AnalogCNNAccuracyBatch(ctx, []uint64{seed}, trials, 0.001)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batch[m], single[0]) {
				t.Errorf("CNN par=%d seed=%d: batched %+v != single %+v", par, seed, batch[m], single[0])
			}
		}
	}
}

// TestAnalogMLPAccuracyRejectsUnknownSampler: the one study entry point
// that still takes a sampler refuses anything but the v3 contract.
func TestAnalogMLPAccuracyRejectsUnknownSampler(t *testing.T) {
	if _, err := AnalogMLPAccuracy(context.Background(), 2020, 1, 10, stats.SamplerVersion(1)); err == nil {
		t.Fatal("sampler(1) accepted")
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
	direct, err := AnalogCNNAccuracyBatch(ctx, seeds, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	memoised, err := AnalogCNNAccuracyBatch(ctx, seeds, 3, 0)
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

// TestDefectRateZeroRegimeIdentical: at rate 0 no fault deviate is drawn
// and the defect datapath is deterministic, so every trial stream must
// reproduce the fault-free mapping's accuracy exactly — the anchor tying
// the Monte-Carlo golden to the noise-free model.
func TestDefectRateZeroRegimeIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the defect CNN; skipped in -short")
	}
	tc, err := defectCNN(5)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := tc.cnn.MapAnalog(core.Options{InterfaceBits: 24}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Accuracy(tc.test, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := AnalogCNNAccuracyBatch(context.Background(), []uint64{5}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	if r.Faults != 0 {
		t.Fatalf("rate-0 study realised %d faults", r.Faults)
	}
	// P50 is one draw's accuracy; the mean and the interpolated P10/P90 may
	// round in the last bit.
	if r.AccP50 != want || math.Abs(r.AnalogAcc-want) > 1e-12 ||
		math.Abs(r.AccP10-want) > 1e-12 || math.Abs(r.AccP90-want) > 1e-12 {
		t.Fatalf("rate-0 defect study %+v differs from the fault-free accuracy %v", r, want)
	}
}
