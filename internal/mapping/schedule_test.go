package mapping

import (
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/params"
)

func schedFor(t *testing.T, c, h, w, d, k, s, pad int) *Schedule {
	t.Helper()
	l := convLayer(c, h, w, d, k, s, pad)
	p := PlaceO2IR(l, params.DefaultTimely(8))
	sch, err := BuildSchedule(p)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// TestScheduleOnlyOnceInvariant: the constructive proof of O2IR — every
// covering conv layer fetches each input pixel exactly once from L1.
func TestScheduleOnlyOnceInvariant(t *testing.T) {
	cases := []struct{ c, h, w, d, k, s, pad int }{
		{3, 224, 224, 64, 3, 1, 1}, // VGG conv1_1
		{64, 56, 56, 64, 3, 1, 1},
		{3, 28, 28, 8, 5, 1, 2},
		{16, 32, 32, 8, 3, 2, 1},   // strided
		{3, 224, 224, 96, 7, 2, 3}, // MSRA/ResNet stem
	}
	for _, cse := range cases {
		sch := schedFor(t, cse.c, cse.h, cse.w, cse.d, cse.k, cse.s, cse.pad)
		want := cse.c * cse.h * cse.w
		if sch.FreshFetches() != want {
			t.Errorf("conv %dx%dx%d k%d s%d p%d: fresh fetches = %d, want %d (only once)",
				cse.c, cse.h, cse.w, cse.k, cse.s, cse.pad, sch.FreshFetches(), want)
		}
	}
}

// TestScheduleMatchesClosedFormCount ties the schedule to the analytic
// Table V model: scheduled fetches equal the o2ir closed-form count.
func TestScheduleMatchesClosedFormCount(t *testing.T) {
	for _, l := range model.VGG("D").ConvLayers()[:6] {
		p := PlaceO2IR(l, params.DefaultTimely(8))
		sch, err := BuildSchedule(p)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := int64(sch.FreshFetches()), l.Inputs(); got != want {
			t.Errorf("%s: scheduled fetches %d, closed form %d", l.Name, got, want)
		}
	}
}

func TestScheduleCoversAllOutputs(t *testing.T) {
	sch := schedFor(t, 3, 30, 30, 4, 3, 1, 1)
	l := sch.Placement.Layer
	if sch.OutputsCovered != l.E*l.F {
		t.Errorf("outputs covered = %d, want %d", sch.OutputsCovered, l.E*l.F)
	}
	if sch.CycleCount()*1 != int(sch.Placement.CyclesPerImage) {
		t.Errorf("cycle count = %d, placement says %d", sch.CycleCount(), sch.Placement.CyclesPerImage)
	}
}

// TestScheduleFirstCycleFetchesWindow: the first cycle fetches a full
// receptive-field band; later cycles in the same group fetch only the S new
// columns (Fig. 7(c): inputs shift by S between X-subBufs).
func TestScheduleFirstCycleFetchesWindow(t *testing.T) {
	sch := schedFor(t, 1, 16, 16, 4, 3, 1, 0)
	first := sch.Cycles[0]
	r := sch.Placement.VerticalCopies
	wantRows := 3 + (r-1)*1 // window height of the duplicated group
	if first.Fresh != wantRows*3 {
		t.Errorf("first cycle fresh = %d, want %d (full %dx3 window)", first.Fresh, wantRows*3, wantRows)
	}
	second := sch.Cycles[1]
	if second.Fresh != wantRows*1 {
		t.Errorf("second cycle fresh = %d, want %d (one new column)", second.Fresh, wantRows)
	}
	if second.Shifted != wantRows*2 {
		t.Errorf("second cycle shifted = %d, want %d (2 reused columns)", second.Shifted, wantRows*2)
	}
}

func TestScheduleReuseFactorGrowsWithKernel(t *testing.T) {
	k3 := schedFor(t, 3, 32, 32, 4, 3, 1, 1).ReuseFactor()
	k5 := schedFor(t, 3, 32, 32, 4, 5, 1, 2).ReuseFactor()
	k7 := schedFor(t, 3, 32, 32, 4, 7, 1, 3).ReuseFactor()
	if !(k7 > k5 && k5 > k3) {
		t.Errorf("reuse not growing with kernel: k3=%.3f k5=%.3f k7=%.3f", k3, k5, k7)
	}
	// A 1x1 s1 conv has no spatial reuse at all.
	if r := schedFor(t, 8, 16, 16, 4, 1, 1, 0).ReuseFactor(); r != 0 {
		t.Errorf("1x1 conv reuse = %.3f, want 0", r)
	}
}

func TestScheduleErrors(t *testing.T) {
	p := PlaceO2IR(firstLayer(4, 8, 8, model.LayerSpec{Name: "fc", Kind: "fc", Units: 10}), params.DefaultTimely(8))
	if _, err := BuildSchedule(p); err == nil {
		t.Errorf("scheduling an FC layer accepted")
	}
}

// TestScheduleInvariantProperty: for random covering convs, total fresh
// fetches always equal C·H·W and fresh+shifted equals the im2col operand
// volume Σ over outputs of the valid window size.
func TestScheduleInvariantProperty(t *testing.T) {
	f := func(hw, kSel, sSel uint8) bool {
		h := int(hw%20) + 8
		k := []int{1, 3, 5}[int(kSel)%3]
		s := []int{1, 2}[int(sSel)%2]
		if k == 1 && s == 2 {
			// 1x1 stride-2 convs skip pixels: fetch-once covers only the
			// sampled grid, which is correct but not C·H·W; skip.
			return true
		}
		pad := k / 2
		l := convLayer(2, h, h, 3, k, s, pad)
		p := PlaceO2IR(l, params.DefaultTimely(8))
		sch, err := BuildSchedule(p)
		if err != nil {
			return false
		}
		// With pad = k/2 and stride ≤ k the windows cover every pixel.
		return sch.FreshFetches() == 2*h*h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
