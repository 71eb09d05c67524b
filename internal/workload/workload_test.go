package workload

import (
	"math"
	"testing"

	"repro/internal/analog"
	"repro/internal/core"
	"repro/internal/stats"
)

func trainedSetup(t *testing.T, seed uint64) (*MLP, *Dataset, *Dataset) {
	t.Helper()
	rng := stats.NewRNG(seed)
	ds := SyntheticClusters(rng, 1200, 16, 4, 0.12)
	train, test := ds.Split(0.8)
	m := NewMLP(rng, 16, 32, 4)
	m.Train(train, rng, 25, 0.05)
	return m, train, test
}

func TestSyntheticClustersShape(t *testing.T) {
	rng := stats.NewRNG(1)
	ds := SyntheticClusters(rng, 100, 8, 3, 0.1)
	if ds.Len() != 100 || ds.Dim != 8 || ds.Classes != 3 {
		t.Fatalf("dataset = %d/%d/%d", ds.Len(), ds.Dim, ds.Classes)
	}
	for i, x := range ds.X {
		if len(x) != 8 {
			t.Fatalf("sample %d has %d features", i, len(x))
		}
		for _, v := range x {
			if v < 0 {
				t.Fatalf("negative feature %v (inputs must be unsigned)", v)
			}
		}
		if ds.Y[i] < 0 || ds.Y[i] >= 3 {
			t.Fatalf("label %d out of range", ds.Y[i])
		}
	}
}

func TestSplit(t *testing.T) {
	rng := stats.NewRNG(2)
	ds := SyntheticClusters(rng, 100, 4, 2, 0.1)
	tr, te := ds.Split(0.75)
	if tr.Len() != 75 || te.Len() != 25 {
		t.Errorf("split = %d/%d", tr.Len(), te.Len())
	}
}

func TestTrainingLearns(t *testing.T) {
	m, train, test := trainedSetup(t, 3)
	accTrain, accTest := m.Accuracy(train), m.Accuracy(test)
	if accTrain < 0.9 {
		t.Errorf("train accuracy = %.3f, want ≥0.9", accTrain)
	}
	if accTest < 0.85 {
		t.Errorf("test accuracy = %.3f, want ≥0.85 (separable clusters)", accTest)
	}
}

func TestTrainReducesLoss(t *testing.T) {
	rng := stats.NewRNG(4)
	ds := SyntheticClusters(rng, 400, 8, 3, 0.1)
	m := NewMLP(rng, 8, 16, 3)
	l1 := m.Train(ds, rng, 1, 0.05)
	l20 := m.Train(ds, rng, 20, 0.05)
	if l20 >= l1 {
		t.Errorf("loss did not decrease: %.4f -> %.4f", l1, l20)
	}
}

func TestTrainWithNoiseStillLearns(t *testing.T) {
	rng := stats.NewRNG(5)
	ds := SyntheticClusters(rng, 800, 16, 4, 0.1)
	tr, te := ds.Split(0.8)
	m := NewMLP(rng, 16, 32, 4)
	m.TrainWithNoise(tr, rng, 25, 0.05, 0.05)
	if acc := m.Accuracy(te); acc < 0.85 {
		t.Errorf("noise-trained accuracy = %.3f, want ≥0.85", acc)
	}
}

func TestQuantizePreservesAccuracy(t *testing.T) {
	m, train, test := trainedSetup(t, 6)
	q, err := Quantize(m, train, 8)
	if err != nil {
		t.Fatal(err)
	}
	accF := m.Accuracy(test)
	accQ := q.AccuracyInt(test)
	if math.Abs(accF-accQ) > 0.05 {
		t.Errorf("8-bit quantisation moved accuracy %.3f -> %.3f", accF, accQ)
	}
}

func TestQuantizeErrors(t *testing.T) {
	if _, err := Quantize(&MLP{}, &Dataset{}, 8); err == nil {
		t.Errorf("quantising an untrained model must fail")
	}
	m, train, _ := trainedSetup(t, 7)
	if _, err := Quantize(m, &Dataset{Dim: train.Dim}, 8); err == nil {
		t.Errorf("quantising with no calibration data must fail")
	}
}

// TestAnalogMatchesIntegerIdeal: the functional-TIMELY backend in ideal-
// interface mode must classify identically to the integer reference on
// every test sample.
func TestAnalogMatchesIntegerIdeal(t *testing.T) {
	m, train, test := trainedSetup(t, 8)
	q, err := Quantize(m, train, 8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := q.MapAnalog(core.IdealOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range test.X {
		want := q.PredictInt(x)
		got, err := a.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("sample %d: analog %d, integer %d", i, got, want)
		}
	}
}

// TestAccuracyLossAtDesignPoint reproduces the §VI-B claim on the synthetic
// workload: at the paper's design-point noise (ε=10 ps, √12·ε within the
// margin), analog accuracy drops ≤ 0.5 % absolute vs the 8-bit reference.
// (The paper reports ≤0.1 % with noise-aware retraining on CNNs; the bound
// here is a conservative budget for the small synthetic MLP.)
func TestAccuracyLossAtDesignPoint(t *testing.T) {
	m, train, test := trainedSetup(t, 9)
	q, err := Quantize(m, train, 8)
	if err != nil {
		t.Fatal(err)
	}
	base := q.AccuracyInt(test)
	a, err := q.MapAnalog(core.Options{Noise: analog.DefaultNoise(1234), InterfaceBits: 24})
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if base-got > 0.005 {
		t.Errorf("design-point noise cost %.4f accuracy (base %.4f, noisy %.4f), want ≤0.005",
			base-got, base, got)
	}
}

// TestExtremeNoiseDegrades: sanity check that the noise path is live — with
// absurd comparator jitter (which reaches every charging column, even on
// layers small enough to avoid X-subBuf hops) the classifier must degrade.
func TestExtremeNoiseDegrades(t *testing.T) {
	m, train, test := trainedSetup(t, 10)
	q, err := Quantize(m, train, 8)
	if err != nil {
		t.Fatal(err)
	}
	noise := &analog.Noise{XSubBufSigma: 8000, PSubBufRelSigma: 0.5,
		ComparatorSigma: 100_000, RNG: stats.NewRNG(11)}
	a, err := q.MapAnalog(core.Options{Noise: noise, InterfaceBits: 24})
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	base := q.AccuracyInt(test)
	if got > base-0.05 {
		t.Errorf("extreme noise barely moved accuracy: %.3f vs %.3f", got, base)
	}
}

// TestAccuracyEmptyDataset: every accuracy function — float, integer and
// analog, per-sample and batched, MLP and CNN — scores an empty dataset 0,
// not the NaN of 0/0.
func TestAccuracyEmptyDataset(t *testing.T) {
	rng := stats.NewRNG(3)
	clusters := SyntheticClusters(rng, 40, 16, 4, 0.12)
	mlp := NewMLP(rng, 16, 8, 4)
	q, err := Quantize(mlp, clusters, 8)
	if err != nil {
		t.Fatal(err)
	}
	amlp, err := q.MapAnalog(core.IdealOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	images := SyntheticImages(rng, 16, 12, 4, 0.05)
	cnn := NewCNN(rng, 8, 7)
	if _, err := cnn.Train(rng, images, 8, 1, 0.05); err != nil {
		t.Fatal(err)
	}
	acnn, err := cnn.MapAnalog(core.IdealOptions(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	noisyCNN, err := cnn.MapAnalog(core.Options{Noise: analog.DefaultNoise(3), InterfaceBits: 24}, 0)
	if err != nil {
		t.Fatal(err)
	}

	noClusters := &Dataset{Dim: 16, Classes: 4}
	noImages := &ImageDataset{Size: 12, Classes: 4}
	withErr := func(f func() (float64, error)) func() float64 {
		return func() float64 {
			acc, err := f()
			if err != nil {
				t.Fatal(err)
			}
			return acc
		}
	}
	for _, tc := range []struct {
		name string
		acc  func() float64
	}{
		{"MLP.Accuracy", func() float64 { return mlp.Accuracy(noClusters) }},
		{"QuantMLP.AccuracyInt", func() float64 { return q.AccuracyInt(noClusters) }},
		{"AnalogMLP.Accuracy", withErr(func() (float64, error) { return amlp.Accuracy(noClusters) })},
		{"CNN.AccuracyInt", func() float64 { return cnn.AccuracyInt(noImages) }},
		{"AnalogCNN.Accuracy", withErr(func() (float64, error) { return acnn.Accuracy(noImages, nil) })},
		{"AnalogCNN.Accuracy (per image)", withErr(func() (float64, error) { return noisyCNN.Accuracy(noImages, nil) })},
	} {
		if got := tc.acc(); got != 0 {
			t.Errorf("%s on an empty dataset = %v, want 0", tc.name, got)
		}
	}
}
