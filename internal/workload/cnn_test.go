package workload

import (
	"testing"

	"repro/internal/analog"
	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/stats"
	"repro/internal/tensor"
)

func trainedCNN(t *testing.T, seed uint64) (*CNN, *ImageDataset, *ImageDataset) {
	t.Helper()
	rng := stats.NewRNG(seed)
	ds := SyntheticImages(rng, 600, 12, 4, 0.05)
	train, test := ds.Split(0.8)
	cnn := NewCNN(rng, 8, 7)
	if _, err := cnn.Train(rng, train, 32, 25, 0.05); err != nil {
		t.Fatal(err)
	}
	return cnn, train, test
}

func TestSyntheticImages(t *testing.T) {
	rng := stats.NewRNG(1)
	ds := SyntheticImages(rng, 50, 12, 4, 0.05)
	if ds.Len() != 50 {
		t.Fatalf("images = %d", ds.Len())
	}
	for i, img := range ds.X {
		if img.Shape.C != 1 || img.Shape.H != 12 || img.Shape.W != 12 {
			t.Fatalf("image %d shape %v", i, img.Shape)
		}
		for _, v := range img.Data {
			if v < 0 || v > 255 {
				t.Fatalf("pixel %d outside 8-bit range", v)
			}
		}
	}
}

func TestCNNLearns(t *testing.T) {
	cnn, train, test := trainedCNN(t, 5)
	if acc := cnn.AccuracyInt(train); acc < 0.9 {
		t.Errorf("train accuracy = %.3f, want ≥0.9", acc)
	}
	if acc := cnn.AccuracyInt(test); acc < 0.85 {
		t.Errorf("test accuracy = %.3f, want ≥0.85 (oriented gratings)", acc)
	}
}

// TestAnalogCNNMatchesIntegerIdeal: the full conv+head pipeline through
// functional TIMELY in ideal mode must classify identically to the integer
// reference.
func TestAnalogCNNMatchesIntegerIdeal(t *testing.T) {
	cnn, _, test := trainedCNN(t, 7)
	a, err := cnn.MapAnalog(core.IdealOptions(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range test.X {
		want := cnn.PredictInt(img)
		got, err := a.Predict(img)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("image %d: analog %d, integer %d", i, got, want)
		}
	}
}

// TestAnalogCNNDesignPointNoise: the conv pipeline keeps its accuracy at the
// paper's design-point circuit noise.
func TestAnalogCNNDesignPointNoise(t *testing.T) {
	cnn, _, test := trainedCNN(t, 9)
	base := cnn.AccuracyInt(test)
	a, err := cnn.MapAnalog(core.Options{
		Noise:         analog.DefaultNoise(33),
		InterfaceBits: 24,
		InputHops:     params.MaxCascadedXSubBufs,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if base-got > 0.01 {
		t.Errorf("design-point noise cost %.3f accuracy (%.3f -> %.3f)", base-got, base, got)
	}
}

// TestAnalogCNNFaultResilience: small stuck-at-fault rates leave accuracy
// largely intact (§V's algorithm-resilience argument); large rates break it.
func TestAnalogCNNFaultResilience(t *testing.T) {
	cnn, _, test := trainedCNN(t, 11)
	base := cnn.AccuracyInt(test)
	accAt := func(rate float64) float64 {
		a, err := cnn.MapAnalog(core.Options{
			Noise:         &analog.Noise{RNG: stats.NewTrialRNG(55, 0)},
			InterfaceBits: 24,
		}, rate)
		if err != nil {
			t.Fatal(err)
		}
		if rate > 0 && a.Faults() == 0 {
			t.Fatalf("no faults injected at rate %v", rate)
		}
		acc, err := a.Accuracy(test)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	small := accAt(0.001)
	if base-small > 0.10 {
		t.Errorf("0.1%% faults cost %.3f accuracy (%.3f -> %.3f): too fragile", base-small, base, small)
	}
	large := accAt(0.30)
	if large > small {
		t.Errorf("30%% faults (%.3f) not worse than 0.1%% faults (%.3f)", large, small)
	}
}

func TestMapAnalogErrors(t *testing.T) {
	cnn := NewCNN(stats.NewRNG(1), 4, 7)
	if _, err := cnn.MapAnalog(core.IdealOptions(nil), 0); err == nil {
		t.Errorf("mapping an untrained CNN accepted")
	}
	// Fault injection without an RNG must fail.
	cnn2, _, _ := trainedCNN(t, 13)
	if _, err := cnn2.MapAnalog(core.IdealOptions(nil), 0.1); err == nil {
		t.Errorf("fault injection without noise RNG accepted")
	}
}

// TestProgrammedKey: AnalogCNN.Programmed identifies what a mapped CNN
// reads. Fault-free draws share one key whatever their RNG; a stuck cell
// inside the conv bank's read region that pins a different level changes
// the key; faults that land elsewhere on the same crossbar do not.
func TestProgrammedKey(t *testing.T) {
	rng := stats.NewRNG(17)
	cnn := NewCNN(rng, 8, 7)
	if _, err := cnn.Train(rng, SyntheticImages(rng, 32, 12, 4, 0.05), 32, 1, 0.05); err != nil {
		t.Fatal(err)
	}
	opts := func(seed uint64) core.Options {
		return core.Options{Noise: &analog.Noise{RNG: stats.NewTrialRNG(seed, 0)}, InterfaceBits: 24}
	}
	clean, err := cnn.MapAnalog(core.IdealOptions(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := clean.Programmed()
	for seed := uint64(1); seed <= 3; seed++ {
		a, err := cnn.MapAnalog(opts(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !a.BatchSafe() || a.Programmed() != key {
			t.Fatalf("rate-0 draw %d: BatchSafe %v, key equal %v", seed, a.BatchSafe(), a.Programmed() == key)
		}
	}
	// The conv bank reads the first Z·G·C rows and D·2·2 columns of
	// crossbar (0,0): 8-bit weights, two nibble columns per sign arm.
	readRows, readCols := 9, 8*2*2
	var inside, outside int
	for seed := uint64(1); seed <= 60 && (inside == 0 || outside == 0); seed++ {
		opt := opts(seed)
		sc := core.NewSubChip(opt)
		n, err := sc.InjectFaults(0.002)
		if err != nil {
			t.Fatal(err)
		}
		a, err := cnn.mapOnto(sc, opt, n)
		if err != nil {
			t.Fatal(err)
		}
		x, ref := sc.Crossbar(0, 0), clean.convMap.AppendLevels(nil)
		changed, faulty, read := false, 0, 0
		for r := 0; r < x.B; r++ {
			for c := 0; c < x.B; c++ {
				if !x.IsFaulty(r, c) {
					continue
				}
				faulty++
				if r < readRows && c < readCols {
					read++
					changed = changed || x.Level(r, c) != ref[r*readCols+c]
				}
			}
		}
		switch {
		case changed:
			inside++
			if a.Programmed() == key {
				t.Fatalf("draw %d: a level-changing fault in the read region left the key unchanged", seed)
			}
		case faulty > 0 && read == 0:
			outside++
			if a.Programmed() != key {
				t.Fatalf("draw %d: %d faults outside the read region changed the key", seed, faulty)
			}
		}
	}
	if inside == 0 || outside == 0 {
		t.Fatalf("draws covered %d inside-fault and %d outside-fault cases, want both", inside, outside)
	}
}

// TestCalibrateMatchesFeatures: the one-convolution calibration pass picks
// the shift the two-pass reference picks (largest conv psum over every
// image, not just the pooled ones) and returns, per image, exactly the
// feature vector the integer path computes — pooling the raw psums before
// requantising changes no code. Odd 11×11 images leave a conv row and
// column outside every pooling window.
func TestCalibrateMatchesFeatures(t *testing.T) {
	for _, size := range []int{12, 11} {
		rng := stats.NewRNG(41)
		imgs := SyntheticImages(rng, 40, size, 4, 0.2).X
		c := NewCNN(rng, 8, 7)
		feats := c.calibrate(imgs)
		maxPsum := int32(0)
		for _, img := range imgs {
			for _, v := range tensor.Conv2D(img, c.Filters, nil, c.Stride, c.Pad).Data {
				maxPsum = max(maxPsum, v)
			}
		}
		if maxPsum>>uint(c.FeatShift) > 255 || (c.FeatShift > 0 && maxPsum>>uint(c.FeatShift-1) <= 255) {
			t.Fatalf("size %d: shift %d is not the least that fits max psum %d in 8 bits", size, c.FeatShift, maxPsum)
		}
		for i, img := range imgs {
			if want := featVec(c.features(img)); !sameBits(feats[i], want) {
				t.Fatalf("size %d image %d: calibration features differ from the integer path", size, i)
			}
		}
	}
}
