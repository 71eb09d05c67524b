package experiments

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/analog"
	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestNoiseSweepMatchesPerPointTrials: the sweep draws each wave once per
// chunk of a draw-signature group, yet every point equals its classifier
// mapped alone under studyOptions on its own fresh stream and scored by
// Accuracy — with ε=0 first, in the middle and last, with repeated
// values, with only zeros, with a single point and with the suite's
// eight non-zero points plus a repeat, at pools of one, two and three
// workers (capped at GOMAXPROCS), so a group runs as one chunk and as
// several.
func TestNoiseSweepMatchesPerPointTrials(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a classifier")
	}
	defer setInnerPar(runtime.GOMAXPROCS(0))
	const seed = 2020
	tm, err := accuracyMLP(seed)
	if err != nil {
		t.Fatal(err)
	}
	want := map[float64]float64{}
	for _, eps := range []float64{0, 5, 10, 20, 50, 100, 200, 400, 800} {
		a, err := tm.q.MapAnalog(studyOptions(stats.NewTrialRNG(seed+1, 0), eps))
		if err != nil {
			t.Fatal(err)
		}
		if want[eps], err = a.Accuracy(tm.test); err != nil {
			t.Fatal(err)
		}
	}
	for _, par := range []int{1, 2, 3} {
		setInnerPar(par)
		for _, eps := range [][]float64{
			{0, 5, 800},
			{5, 0, 800},
			{5, 800, 0},
			{10, 10, 0, 5, 0, 10},
			{0, 0, 0},
			{800},
			{5, 10, 20, 50, 0, 100, 200, 400, 800, 10},
		} {
			pts, err := RunNoiseSweep(context.Background(), seed, eps)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pts {
				margin := analog.CascadeErrorBound(params.MaxCascadedXSubBufs, eps[i]) <= params.TDelMargin
				if p.EpsilonPS != eps[i] || p.AnalogAcc != want[eps[i]] || p.WithinMargin != margin {
					t.Errorf("par=%d sweep %v point %d: %+v; want accuracy %v", par, eps, i, p, want[eps[i]])
				}
			}
		}
	}
}

// TestDefectPatchesMatchPredictLoop: a fault-map draw scored from the test
// set's cached patch codes classifies exactly what Predict does image by
// image, and an image whose pixels are not 8-bit codes fails both ways
// with the same DTC range error.
func TestDefectPatchesMatchPredictLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the defect CNN")
	}
	tc, err := defectCNN(5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tc.cnn.MapAnalog(core.Options{
		Noise:         &analog.Noise{RNG: stats.NewTrialRNG(5, 1)},
		InterfaceBits: 24,
	}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	predictLoop := func(d *workload.ImageDataset) (float64, error) {
		hit := 0
		for i, img := range d.X {
			p, err := a.Predict(img)
			if err != nil {
				return 0, err
			}
			if p == d.Y[i] {
				hit++
			}
		}
		return float64(hit) / float64(d.Len()), nil
	}
	want, err := predictLoop(tc.test)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := a.Accuracy(tc.test, tc.cnn.PatchCodes(tc.test)); err != nil || got != want {
		t.Fatalf("Accuracy with cached patches = %v, %v; Predict loop %v", got, err, want)
	}

	img := tc.test.X[2].Clone()
	img.Set(0, 4, 4, 256)
	bad := &workload.ImageDataset{
		X:    append(tc.test.X[:2:2], img, tc.test.X[3]),
		Y:    tc.test.Y[:4],
		Size: tc.test.Size, Classes: tc.test.Classes,
	}
	patches := tc.cnn.PatchCodes(bad)
	if patches[2] != nil || patches[3] == nil {
		t.Fatal("PatchCodes must leave only the non-code image without patches")
	}
	_, wantErr := predictLoop(bad)
	_, gotErr := a.Accuracy(bad, patches)
	if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("non-code image: Accuracy error %v, Predict loop error %v", gotErr, wantErr)
	}
}
