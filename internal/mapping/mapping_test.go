package mapping

import (
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/params"
)

func cfg8() params.TimelyConfig { return params.DefaultTimely(8) }

// firstLayer compiles a network of the given input shape and layers and
// returns its first layer.
func firstLayer(c, h, w int, layers ...model.LayerSpec) model.Layer {
	n, err := (&model.Spec{Name: "t", Input: model.Dims{C: c, H: h, W: w}, Layers: layers}).Compile()
	if err != nil {
		panic(err)
	}
	return n.Layers[0]
}

func convLayer(c, h, w, d, k, s, pad int) model.Layer {
	return firstLayer(c, h, w, model.LayerSpec{Name: "conv", Kind: "conv", Filters: d, Kernel: k, Stride: s, Pad: pad})
}

func TestPlaceSmallConvFitsOneSubChip(t *testing.T) {
	// VGG conv1_1: rows = 3·3·3 = 27, cols = 64·2 = 128: trivially fits.
	l := convLayer(3, 224, 224, 64, 3, 1, 1)
	p := PlaceO2IR(l, cfg8())
	if p.SubChips != 1 || p.RowSplit != 1 || p.ColSplit != 1 {
		t.Errorf("conv1_1 placement = %+v, want single sub-chip", p)
	}
	if p.Rows != 27 {
		t.Errorf("rows = %d, want 27", p.Rows)
	}
	// Copies bounded by column capacity: 3072/128 = 24.
	if p.VerticalCopies != 24 {
		t.Errorf("vertical copies = %d, want 24 (column bound)", p.VerticalCopies)
	}
	// Cycles: ceil(224/24)·224 = 10·224.
	if want := int64(10 * 224); p.CyclesPerImage != want {
		t.Errorf("cycles = %d, want %d", p.CyclesPerImage, want)
	}
}

func TestPlaceVGGConv2RowBound(t *testing.T) {
	// VGG conv1_2: rows = 64·9 = 576, stride rows = 64·3 = 192.
	// Row bound: (4096−576)/192+1 = 19; col bound: 3072/128 = 24 → 19.
	l := convLayer(64, 224, 224, 64, 3, 1, 1)
	p := PlaceO2IR(l, cfg8())
	if p.VerticalCopies != 19 {
		t.Errorf("vertical copies = %d, want 19 (row bound)", p.VerticalCopies)
	}
	if p.CopyRowStride != 192 {
		t.Errorf("copy stride = %d, want 192", p.CopyRowStride)
	}
}

func TestPlaceDeepConvRowSplit(t *testing.T) {
	// VGG conv5-style: rows = 512·9 = 4608 > 4096 → RowSplit 2, no copies.
	l := convLayer(512, 14, 14, 512, 3, 1, 1)
	p := PlaceO2IR(l, cfg8())
	if p.RowSplit != 2 {
		t.Errorf("RowSplit = %d, want 2", p.RowSplit)
	}
	if p.VerticalCopies != 1 {
		t.Errorf("split layer must not duplicate, got %d copies", p.VerticalCopies)
	}
	if p.SubChips != 2 {
		t.Errorf("SubChips = %d, want 2", p.SubChips)
	}
}

func TestPlaceWideLayerColSplit(t *testing.T) {
	// 4096 filters × 2 cols = 8192 > 3072 → ColSplit 3 (VGG fc6-style width
	// on a conv shape).
	l := convLayer(8, 8, 8, 4096, 1, 1, 0)
	p := PlaceO2IR(l, cfg8())
	if p.ColSplit != 3 {
		t.Errorf("ColSplit = %d, want 3", p.ColSplit)
	}
}

func TestPlaceFC(t *testing.T) {
	l := firstLayer(512, 7, 7, model.LayerSpec{Name: "fc6", Kind: "fc", Units: 4096})
	p := PlaceO2IR(l, cfg8())
	// rows = 25088 → RowSplit ceil(25088/4096) = 7; cols = 8192 → 3.
	if p.RowSplit != 7 || p.ColSplit != 3 {
		t.Errorf("fc6 split = %dx%d, want 7x3", p.RowSplit, p.ColSplit)
	}
	if p.SubChips != 21 {
		t.Errorf("fc6 sub-chips = %d, want 21", p.SubChips)
	}
	if p.CyclesPerImage != 1 {
		t.Errorf("fc cycles = %d, want 1 (single pass)", p.CyclesPerImage)
	}
}

func TestPlace16BitDoublesColumnsAndPasses(t *testing.T) {
	l := convLayer(64, 56, 56, 64, 3, 1, 1)
	p8 := PlaceO2IR(l, params.DefaultTimely(8))
	p16 := PlaceO2IR(l, params.DefaultTimely(16))
	if p16.PhysColsPerWeight != 2*p8.PhysColsPerWeight {
		t.Errorf("16-bit cols/weight = %d, want 2x of %d", p16.PhysColsPerWeight, p8.PhysColsPerWeight)
	}
	if p16.CyclesPerImage <= p8.CyclesPerImage {
		t.Errorf("16-bit cycles (%d) must exceed 8-bit (%d): two input passes",
			p16.CyclesPerImage, p8.CyclesPerImage)
	}
}

func TestVerticalCopiesBoundedByE(t *testing.T) {
	// Tiny feature map: E = 4 bounds copies even with huge spare capacity.
	l := convLayer(3, 4, 4, 8, 1, 1, 0)
	p := PlaceO2IR(l, cfg8())
	if p.VerticalCopies != 4 {
		t.Errorf("copies = %d, want 4 (bounded by E)", p.VerticalCopies)
	}
}

func TestPlacePanicsOnPool(t *testing.T) {
	l := firstLayer(3, 8, 8, model.LayerSpec{Kind: "maxpool", Kernel: 2, Stride: 2},
		model.LayerSpec{Kind: "fc", Units: 2}) // a spec needs a weighted layer
	defer func() {
		if recover() == nil {
			t.Errorf("placing a pool layer did not panic")
		}
	}()
	PlaceO2IR(l, cfg8())
}

func TestLowerVGGD(t *testing.T) {
	plan := Lower(model.VGG("D"), cfg8())
	if len(plan.Placements) != 16 {
		t.Fatalf("VGG-D placements = %d, want 16", len(plan.Placements))
	}
	// One VGG-D instance must fit comfortably inside one 106-sub-chip chip.
	if plan.Need <= 16 || plan.Need > params.SubChipsPerChip {
		t.Errorf("VGG-D sub-chips per copy = %d, want in (16,106]", plan.Need)
	}
}

// TestLower pins the lowering of VGG-D on one Table II chip (two pipeline
// copies fit) and on a 32-sub-chip chip (one copy does not fit).
func TestLower(t *testing.T) {
	first := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 18, 39, 42}
	small := cfg8()
	small.SubChips = 32
	for _, tc := range []struct {
		name   string
		cfg    params.TimelyConfig
		fits   bool
		copies int
	}{
		{"chip", cfg8(), true, 2},
		{"small", small, false, 1},
	} {
		plan := Lower(model.VGG("D"), tc.cfg)
		if !reflect.DeepEqual(plan.First, first) {
			t.Errorf("%s: First = %v, want %v", tc.name, plan.First, first)
		}
		if plan.Need != 43 || plan.Fits != tc.fits || plan.Copies != tc.copies {
			t.Errorf("%s: Need/Fits/Copies = %d/%v/%d, want 43/%v/%d",
				tc.name, plan.Need, plan.Fits, plan.Copies, tc.fits, tc.copies)
		}
	}
}

// TestCrossesChip pins the chip-crossing rule: a stage crosses when its
// sub-chips run up to or past a χ multiple. CNN-1 (four one-sub-chip
// stages) at 16 chips: copy 26 occupies sub-chips 104–107, so stage 1
// (sub-chip 105) is flagged and stage 2 (sub-chip 106, the first on chip 1)
// is not.
func TestCrossesChip(t *testing.T) {
	cfg := cfg8()
	cfg.Chips = 16
	plan := Lower(model.CNN1(), cfg)
	for stage, want := range []bool{false, true, false, false} {
		if got := plan.CrossesChip(stage, 26); got != want {
			t.Errorf("CrossesChip(%d, 26) = %v, want %v", stage, got, want)
		}
	}
	for c := 0; c < plan.Copies; c++ {
		if plan.CrossesChip(0, c) {
			t.Errorf("stage 0 of copy %d crosses; it has no inbound boundary", c)
		}
	}
}

func TestCrossbarsUsed(t *testing.T) {
	l := convLayer(3, 224, 224, 64, 3, 1, 1)
	p := PlaceO2IR(l, cfg8())
	used := p.CrossbarsUsed(cfg8())
	if used < 1 || used > cfg8().CrossbarsPerSubChip() {
		t.Errorf("crossbars used = %d, want within one sub-chip", used)
	}
	// A split layer occupies whole sub-chips.
	deep := convLayer(512, 14, 14, 512, 3, 1, 1)
	pd := PlaceO2IR(deep, cfg8())
	if got := pd.CrossbarsUsed(cfg8()); got != 2*cfg8().CrossbarsPerSubChip() {
		t.Errorf("split crossbars used = %d, want 2 grids", got)
	}
}

func TestPlaceBaselinePrimeStyle(t *testing.T) {
	// PRIME: 256×256 mats, 8-bit weights on 4-bit cells (2 cols), 1 pass.
	l := convLayer(64, 224, 224, 64, 3, 1, 1)
	p := PlaceBaseline(l, 256, 2, 1)
	if p.RowChunks != 3 { // 576/256
		t.Errorf("RowChunks = %d, want 3", p.RowChunks)
	}
	if p.ColChunks != 1 { // 128/256
		t.Errorf("ColChunks = %d, want 1", p.ColChunks)
	}
	if p.WavesPerImage != 224*224 {
		t.Errorf("waves = %d, want %d", p.WavesPerImage, 224*224)
	}
}

func TestPlaceBaselineIsaacStyle(t *testing.T) {
	// ISAAC: 128×128, 16-bit weights over 2-bit cells (8 cols), 16 bit-
	// serial passes.
	l := convLayer(64, 224, 224, 64, 3, 1, 1)
	p := PlaceBaseline(l, 128, 8, 16)
	if p.RowChunks != 5 { // ceil(576/128)
		t.Errorf("RowChunks = %d, want 5", p.RowChunks)
	}
	if p.ColChunks != 4 { // 512/128
		t.Errorf("ColChunks = %d, want 4", p.ColChunks)
	}
	if p.WavesPerImage != 224*224*16 {
		t.Errorf("waves = %d, want %d", p.WavesPerImage, 224*224*16)
	}
}
