package workload

import (
	"testing"

	"repro/internal/analog"
	"repro/internal/core"
	"repro/internal/energy"
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

// TestAnalogCNNFeaturesMatchInteger: in ideal mode the analog feature
// vector — pooled straight from the conv psums — equals the integer
// path's requantise-then-pool features, value for value, through Predict's
// and AccuracyBatch's scratch alike.
func TestAnalogCNNFeaturesMatchInteger(t *testing.T) {
	cnn, _, test := trainedCNN(t, 7)
	a, err := cnn.MapAnalog(core.IdealOptions(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range test.X[:20] {
		want := featVec(cnn.features(img))
		got := make([]float64, a.featLen(img))
		if err := a.features(img, got); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("image %d: %d features, integer path %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("image %d feature %d: analog %v, integer %v", i, j, got[j], want[j])
			}
		}
	}
}

// TestAnalogCNNRejectsNonCodePixels: a pixel outside [0, 255] fails with
// the DTC's range error naming the first such pixel a patch reads — here
// (1,0), read by the first patch, before (0,5) earlier in raster order.
func TestAnalogCNNRejectsNonCodePixels(t *testing.T) {
	cnn, _, test := trainedCNN(t, 7)
	a, err := cnn.MapAnalog(core.IdealOptions(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	img := test.X[0].Clone()
	img.Set(0, 0, 5, 300)
	img.Set(0, 1, 0, -4)
	want := "analog: DTC code -4 out of [0,256)"
	if _, err := a.Predict(img); err == nil || err.Error() != want {
		t.Fatalf("Predict error = %v; want %q", err, want)
	}
	bad := &ImageDataset{X: []*tensor.Int{test.X[1], img}, Y: []int{0, 0}, Size: test.Size, Classes: test.Classes}
	if _, err := a.AccuracyBatch(bad); err == nil || err.Error() != want {
		t.Fatalf("AccuracyBatch error = %v; want %q", err, want)
	}
	if _, err := a.Predict(test.X[1]); err != nil {
		t.Fatalf("a valid image after a rejected one: %v", err)
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

// TestSharedHeadDrawsNothing: a defect draw's head takes no faults and,
// under zero sigmas, draws nothing. So heads mapped under two draws' RNGs
// (and the pooled head, mapped without one) give the same psums on every
// layer, and both RNGs stay at block 0. MapAnalog hands each live
// AnalogCNN its own head, reuses a released one, and never shares a head
// that counts into a ledger or draws noise.
func TestSharedHeadDrawsNothing(t *testing.T) {
	rng := stats.NewRNG(23)
	cnn := NewCNN(rng, 8, 7)
	if _, err := cnn.Train(rng, SyntheticImages(rng, 32, 12, 4, 0.05), 32, 1, 0.05); err != nil {
		t.Fatal(err)
	}
	opts := func(seed uint64) core.Options {
		return core.Options{Noise: &analog.Noise{RNG: stats.NewTrialRNG(seed, 0)}, InterfaceBits: 24}
	}
	optA, optB := opts(1), opts(2)
	headA, err := cnn.Head.MapAnalog(optA)
	if err != nil {
		t.Fatal(err)
	}
	headB, err := cnn.Head.MapAnalog(optB)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cnn.MapAnalog(opts(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.shared == nil {
		t.Fatal("a zero-sigma draw's head is not shareable")
	}
	for l, mA := range headA.mapped {
		mB, mP := headB.mapped[l], a.head.mapped[l]
		codes := make([]int, mA.Rows)
		for v := 0; v < 16; v++ {
			for i := range codes {
				codes[i] = rng.Intn(256)
			}
			var psums [3][]int
			for i, m := range []*core.MappedLayer{mA, mB, mP} {
				psums[i] = make([]int, m.D)
				if err := m.ForwardBatch(codes, 1, psums[i]); err != nil {
					t.Fatal(err)
				}
			}
			for d := range psums[0] {
				if psums[0][d] != psums[1][d] || psums[0][d] != psums[2][d] {
					t.Fatalf("layer %d input %d psum %d: draw A %d, draw B %d, pooled %d",
						l, v, d, psums[0][d], psums[1][d], psums[2][d])
				}
			}
		}
	}
	for seed, opt := range map[uint64]core.Options{1: optA, 2: optB} {
		if *opt.Noise.RNG != *stats.NewTrialRNG(seed, 0) {
			t.Fatalf("mapping and running the head moved draw %d's RNG", seed)
		}
	}

	b, err := cnn.MapAnalog(opts(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.head == a.head {
		t.Fatal("two live AnalogCNNs share one head")
	}
	head := a.head
	a.Release()
	c, err := cnn.MapAnalog(opts(5), 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if c.head != head {
		t.Fatal("MapAnalog mapped a new head although a released one was idle")
	}
	c.Release()
	b.Release()
	for name, opt := range map[string]core.Options{
		"ledger": core.IdealOptions(energy.NewLedger(nil)),
		"noisy":  {Noise: analog.DefaultNoiseRNG(stats.NewTrialRNG(6, 0)), InterfaceBits: 24},
	} {
		d, err := cnn.MapAnalog(opt, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d.shared != nil || d.head == head {
			t.Fatalf("%s options: the head is shared", name)
		}
	}
}

// BenchmarkCalibrate measures the CNN's feature-shift calibration over the
// defect study's 480 training images: one integer convolution per image.
func BenchmarkCalibrate(b *testing.B) {
	rng := stats.NewRNG(2020)
	train, _ := SyntheticImages(rng, 600, 12, 4, 0.05).Split(0.8)
	c := NewCNN(rng, 8, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.calibrate(train.X)
	}
}
