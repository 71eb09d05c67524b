package workload

import (
	"strings"
	"testing"

	"repro/internal/analog"
	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/stats"
)

// predictLoop is the reference every Accuracy is checked against: one
// Predict call per sample, in order.
func predictLoop[X any](t *testing.T, predict func(X) (int, error), xs []X, ys []int) float64 {
	t.Helper()
	hit := 0
	for i, x := range xs {
		p, err := predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if p == ys[i] {
			hit++
		}
	}
	return hitRate(hit, len(xs))
}

// TestMLPBatchIdentityDeterministic: with a deterministic noise
// configuration the layer-major blocked path must classify every sample
// identically to per-sample Predict.
func TestMLPBatchIdentityDeterministic(t *testing.T) {
	m, train, test := trainedSetup(t, 21)
	q, err := Quantize(m, train, 8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := q.MapAnalog(core.IdealOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !a.BatchSafe() {
		t.Fatal("ideal mapping must be batch-safe")
	}
	preds := make([]int, test.Len())
	if err := a.PredictBatch(test.X, preds); err != nil {
		t.Fatal(err)
	}
	for i, x := range test.X {
		want, err := a.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if preds[i] != want {
			t.Fatalf("sample %d: batched %d, per-sample %d", i, preds[i], want)
		}
	}
	accSeq := predictLoop(t, a.Predict, test.X, test.Y)
	accBatch, err := a.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if accSeq != accBatch {
		t.Fatalf("accuracy diverged: sequential %v, batched %v", accSeq, accBatch)
	}
}

// TestMLPBatchIdentityNoisy: with randomness configured BatchSafe must be
// false and Accuracy must fall back to the exact per-sample path — two
// identically-seeded mappings, one evaluated by a Predict loop and one by
// Accuracy, consume the same RNG stream and agree exactly.
func TestMLPBatchIdentityNoisy(t *testing.T) {
	m, train, test := trainedSetup(t, 22)
	q, err := Quantize(m, train, 8)
	if err != nil {
		t.Fatal(err)
	}
	mapNoisy := func() *AnalogMLP {
		t.Helper()
		noise := analog.DefaultNoise(77)
		a, err := q.MapAnalog(core.Options{
			Noise:         noise,
			InterfaceBits: 24,
			InputHops:     params.MaxCascadedXSubBufs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a1 := mapNoisy()
	if a1.BatchSafe() {
		t.Fatal("noisy mapping reported batch-safe — reordering would change RNG draws")
	}
	accSeq := predictLoop(t, a1.Predict, test.X, test.Y)
	a2 := mapNoisy()
	accBatch, err := a2.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if accSeq != accBatch {
		t.Fatalf("noisy fallback diverged: sequential %v, batched %v", accSeq, accBatch)
	}
}

// TestLockstepAccuracyMatchesPredictLoop: models that share one noise
// stream and differ only in the size of a non-zero sigma, scored in
// lockstep, each score the accuracy of a Predict loop over the same
// model mapped alone on its own clone of the stream, and the shared
// stream ends where every clone does; a deterministic group scores what
// Accuracy's batched path does. Models from different QuantMLPs are
// refused, and an input code the DTC cannot convert fails with the DTC's
// range error, as Predict does.
func TestLockstepAccuracyMatchesPredictLoop(t *testing.T) {
	m, train, test := trainedSetup(t, 23)
	q, err := Quantize(m, train, 8)
	if err != nil {
		t.Fatal(err)
	}
	opts := func(rng *stats.RNG, eps float64) core.Options {
		noise := analog.DefaultNoiseRNG(rng)
		noise.XSubBufSigma = eps
		return core.Options{Noise: noise, InterfaceBits: 24, InputHops: params.MaxCascadedXSubBufs}
	}
	epss := []float64{5, 40, 400}
	shared := stats.NewTrialRNG(23, 0)
	clones := make([]*stats.RNG, len(epss))
	as := make([]*AnalogMLP, len(epss))
	want := make([]float64, len(epss))
	for k, eps := range epss {
		clones[k] = shared.Clone()
		if as[k], err = q.MapAnalog(opts(shared, eps)); err != nil {
			t.Fatal(err)
		}
		alone, err := q.MapAnalog(opts(clones[k], eps))
		if err != nil {
			t.Fatal(err)
		}
		want[k] = predictLoop(t, alone.Predict, test.X, test.Y)
	}
	got, err := LockstepAccuracy(as, test)
	if err != nil {
		t.Fatal(err)
	}
	for k := range epss {
		if got[k] != want[k] {
			t.Errorf("eps=%v: lockstep accuracy %v, alone %v", epss[k], got[k], want[k])
		}
		if g, w := shared.Clone().Uint64(), clones[k].Uint64(); g != w {
			t.Errorf("eps=%v: shared stream and its clone end in different states", epss[k])
		}
	}
	if want[0] == want[2] {
		t.Errorf("eps 5 and 400 scored alike (%v): the test cannot tell the models apart", want[0])
	}

	ideal := make([]*AnalogMLP, 2)
	for k := range ideal {
		if ideal[k], err = q.MapAnalog(core.IdealOptions(nil)); err != nil {
			t.Fatal(err)
		}
	}
	batched, err := ideal[0].Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := LockstepAccuracy(ideal, test); err != nil || got[0] != batched || got[1] != batched {
		t.Errorf("deterministic lockstep = %v, %v; want %v twice", got, err, batched)
	}

	m2, train2, _ := trainedSetup(t, 24)
	q2, err := Quantize(m2, train2, 8)
	if err != nil {
		t.Fatal(err)
	}
	other, err := q2.MapAnalog(core.IdealOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LockstepAccuracy([]*AnalogMLP{ideal[0], other}, test); err == nil {
		t.Error("models from different QuantMLPs scored in lockstep")
	}

	// A 12-bit input quantiser at 1/16 the step: some codes exceed 255.
	wide := *q
	wide.InQ.Bits, wide.InQ.Scale = 12, q.InQ.Scale/16
	rng := stats.NewTrialRNG(23, 1)
	var errs [2]error
	for i := range errs {
		a, err := wide.MapAnalog(opts(rng.Clone(), 40))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			_, errs[i] = LockstepAccuracy([]*AnalogMLP{a}, test)
			continue
		}
		for _, x := range test.X {
			if _, errs[i] = a.Predict(x); errs[i] != nil {
				break
			}
		}
	}
	if errs[0] == nil || errs[1] == nil || errs[0].Error() != errs[1].Error() ||
		!strings.HasPrefix(errs[0].Error(), "analog: DTC code ") {
		t.Fatalf("out-of-range input codes: lockstep error %v, Predict loop error %v", errs[0], errs[1])
	}
}

// TestCNNBatchIdentity covers both regimes of the conv pipeline: the
// defect-study configuration (RNG present, every sigma zero) is
// deterministic and must take the cross-image blocked path; the
// design-point noise configuration must fall back.
func TestCNNBatchIdentity(t *testing.T) {
	cnn, _, test := trainedCNN(t, 23)

	mapFaulty := func() *AnalogCNN {
		t.Helper()
		a, err := cnn.MapAnalog(core.Options{
			Noise:         &analog.Noise{RNG: stats.NewTrialRNG(91, 0)},
			InterfaceBits: 24,
		}, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a := mapFaulty()
	if !a.BatchSafe() {
		t.Fatal("zero-sigma defect mapping must be batch-safe")
	}
	accSeq := predictLoop(t, a.Predict, test.X, test.Y)
	patches := cnn.PatchCodes(test)
	for _, p := range [][][]uint8{nil, patches} {
		accBatch, err := a.Accuracy(test, p)
		if err != nil {
			t.Fatal(err)
		}
		if accSeq != accBatch {
			t.Fatalf("faulty-deterministic accuracy diverged (patches %t): sequential %v, batched %v",
				p != nil, accSeq, accBatch)
		}
	}

	mapNoisy := func() *AnalogCNN {
		t.Helper()
		a, err := cnn.MapAnalog(core.Options{
			Noise:         analog.DefaultNoise(92),
			InterfaceBits: 24,
			InputHops:     params.MaxCascadedXSubBufs,
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	n1 := mapNoisy()
	if n1.BatchSafe() {
		t.Fatal("noisy CNN mapping reported batch-safe")
	}
	nSeq := predictLoop(t, n1.Predict, test.X, test.Y)
	for _, p := range [][][]uint8{nil, patches} {
		nBatch, err := mapNoisy().Accuracy(test, p)
		if err != nil {
			t.Fatal(err)
		}
		if nSeq != nBatch {
			t.Fatalf("noisy CNN fallback diverged (patches %t): sequential %v, batched %v", p != nil, nSeq, nBatch)
		}
	}
}
