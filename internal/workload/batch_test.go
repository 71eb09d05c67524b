package workload

import (
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
	accBatch, err := a.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if accSeq != accBatch {
		t.Fatalf("faulty-deterministic accuracy diverged: sequential %v, batched %v", accSeq, accBatch)
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
	n2 := mapNoisy()
	nBatch, err := n2.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if nSeq != nBatch {
		t.Fatalf("noisy CNN fallback diverged: sequential %v, batched %v", nSeq, nBatch)
	}
}
