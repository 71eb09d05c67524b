package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/analog"
	"repro/internal/energy"
	"repro/internal/params"
	"repro/internal/stats"
	"repro/internal/tensor"
)

func randomConvCase(seed uint64, c, h, w, d, k int) (*tensor.Int, *tensor.Filter) {
	rng := stats.NewRNG(seed)
	in := tensor.NewInt(c, h, w)
	for i := range in.Data {
		in.Data[i] = int32(rng.Intn(256))
	}
	f := tensor.NewFilter(d, c, k, k)
	for i := range f.Data {
		f.Data[i] = int32(rng.Intn(255)) - 127
	}
	return in, f
}

// TestRunConvIdealIsExact: in ideal-interface mode (wide TDC, no noise) the
// full analog pipeline must be bit-exact against the integer reference.
func TestRunConvIdealIsExact(t *testing.T) {
	in, f := randomConvCase(1, 3, 6, 6, 4, 3)
	res, err := RunConv(IdealOptions(nil), in, f, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.Conv2D(in, f, nil, 1, 1)
	if res.Out.Shape != want.Shape {
		t.Fatalf("shape %v, want %v", res.Out.Shape, want.Shape)
	}
	for i := range want.Data {
		if res.Out.Data[i] != want.Data[i] {
			t.Fatalf("psum[%d] = %d, want %d (scale shift %d)",
				i, res.Out.Data[i], want.Data[i], res.Mapped.ScaleShift)
		}
	}
}

func TestRunConvIdealExactProperty(t *testing.T) {
	f := func(seed uint64) bool {
		in, flt := randomConvCase(seed, 2, 5, 5, 3, 3)
		res, err := RunConv(IdealOptions(nil), in, flt, 1, 0, false)
		if err != nil {
			return false
		}
		want := tensor.Conv2D(in, flt, nil, 1, 0)
		for i := range want.Data {
			if res.Out.Data[i] != want.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestRunConv8BitErrorBounded: with the Table II 8-bit TDC, psum error must
// stay within the mapped layer's quantisation bound.
func TestRunConv8BitErrorBounded(t *testing.T) {
	in, f := randomConvCase(7, 3, 6, 6, 4, 3)
	res, err := RunConv(Options{}, in, f, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.Conv2D(in, f, nil, 1, 1)
	bound := res.Mapped.QuantizationBound()
	if bound <= 0 {
		t.Fatalf("non-positive quantisation bound %v", bound)
	}
	for i := range want.Data {
		diff := math.Abs(float64(res.Out.Data[i] - want.Data[i]))
		if diff > bound {
			t.Fatalf("psum[%d] error %v exceeds bound %v", i, diff, bound)
		}
	}
}

func TestRunConvReLU(t *testing.T) {
	in, f := randomConvCase(3, 2, 4, 4, 2, 3)
	res, err := RunConv(IdealOptions(nil), in, f, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Out.Data {
		if v < 0 {
			t.Fatalf("ReLU output %d is negative: %d", i, v)
		}
	}
}

func TestRunFCIdealIsExact(t *testing.T) {
	rng := stats.NewRNG(5)
	in := tensor.NewInt(1, 1, 32)
	for i := range in.Data {
		in.Data[i] = int32(rng.Intn(256))
	}
	weights := make([][]int, 8)
	ref := make([][]int32, 8)
	for d := range weights {
		weights[d] = make([]int, 32)
		ref[d] = make([]int32, 32)
		for k := range weights[d] {
			v := rng.Intn(255) - 127
			weights[d][k] = v
			ref[d][k] = int32(v)
		}
	}
	got, _, err := RunFC(IdealOptions(nil), in, weights, false)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.FC(in, ref, nil)
	for d := range want {
		if got[d] != int(want[d]) {
			t.Fatalf("fc[%d] = %d, want %d", d, got[d], want[d])
		}
	}
}

// TestMultiCrossbarRowsExact: a dot product spanning several vertical
// crossbars exercises the P-subBuf / I-adder aggregation path.
func TestMultiCrossbarRowsExact(t *testing.T) {
	rng := stats.NewRNG(9)
	rows := 600 // > B=256: spans three grid rows
	in := tensor.NewInt(1, 1, rows)
	for i := range in.Data {
		in.Data[i] = int32(rng.Intn(256))
	}
	weights := [][]int{make([]int, rows)}
	ref := [][]int32{make([]int32, rows)}
	for k := 0; k < rows; k++ {
		v := rng.Intn(255) - 127
		weights[0][k] = v
		ref[0][k] = int32(v)
	}
	got, m, err := RunFC(IdealOptions(nil), in, weights, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.gridRowsUsed != 3 {
		t.Errorf("gridRowsUsed = %d, want 3", m.gridRowsUsed)
	}
	want := tensor.FC(in, ref, nil)
	if got[0] != int(want[0]) {
		t.Errorf("multi-crossbar fc = %d, want %d", got[0], want[0])
	}
}

// TestMultiGridColumnXSubBufPath: enough output channels to spill into a
// second grid column exercises the X-subBuf propagation path.
func TestMultiGridColumnXSubBufPath(t *testing.T) {
	rng := stats.NewRNG(13)
	d, rows := 80, 16 // 80 channels × 4 phys cols = 320 > 256
	in := tensor.NewInt(1, 1, rows)
	for i := range in.Data {
		in.Data[i] = int32(rng.Intn(256))
	}
	weights := make([][]int, d)
	ref := make([][]int32, d)
	for di := range weights {
		weights[di] = make([]int, rows)
		ref[di] = make([]int32, rows)
		for k := range weights[di] {
			v := rng.Intn(255) - 127
			weights[di][k] = v
			ref[di][k] = int32(v)
		}
	}
	led := energy.NewLedger(nil)
	got, m, err := RunFC(IdealOptions(led), in, weights, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.gridColsUsed != 2 {
		t.Fatalf("gridColsUsed = %d, want 2", m.gridColsUsed)
	}
	want := tensor.FC(in, ref, nil)
	for di := range want {
		if got[di] != int(want[di]) {
			t.Fatalf("fc[%d] = %d, want %d", di, got[di], want[di])
		}
	}
	if led.Count(energy.XSubBufOp) == 0 {
		t.Errorf("no X-subBuf hops counted despite two grid columns")
	}
}

func TestMapDenseErrors(t *testing.T) {
	s := NewSubChip(Options{})
	if _, err := s.MapDense(nil); err == nil {
		t.Errorf("empty matrix accepted")
	}
	if _, err := s.MapDense([][]int{{300}}); err == nil {
		t.Errorf("out-of-range weight accepted")
	}
	big := make([][]int, 1)
	big[0] = make([]int, params.DefaultTimely(8).RowCapacity()+1)
	if _, err := s.MapDense(big); err == nil {
		t.Errorf("over-capacity rows accepted")
	}
	ragged := [][]int{{1, 2}, {1}}
	if _, err := s.MapDense(ragged); err == nil {
		t.Errorf("ragged matrix accepted")
	}
}

func TestComputeInputLengthError(t *testing.T) {
	s := NewSubChip(Options{})
	m, err := s.MapDense([][]int{{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Compute([]int{1}); err == nil {
		t.Errorf("short input vector accepted")
	}
}

// TestO2IRLedgerCounts verifies the O2IR access accounting of a conv layer:
// inputs read and converted exactly once, TDC/charging per column wave.
func TestO2IRLedgerCounts(t *testing.T) {
	led := energy.NewLedger(nil)
	in, f := randomConvCase(21, 2, 5, 5, 3, 3)
	res, err := RunConv(IdealOptions(led), in, f, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	nIn := float64(2 * 5 * 5)
	if got := led.Count(energy.L1Read); got != nIn {
		t.Errorf("L1 reads = %v, want %v (O2IR: once per input)", got, nIn)
	}
	if got := led.Count(energy.DTCConv); got != nIn {
		t.Errorf("DTC conversions = %v, want %v", got, nIn)
	}
	e, fdim := res.Out.Shape.H, res.Out.Shape.W
	waves := float64(e * fdim)
	physCols := float64(3 * 2 * 2) // D=3, 2 arms, 2 nibbles (8-bit weights)
	if got := led.Count(energy.TDCConv); got != waves*physCols {
		t.Errorf("TDC conversions = %v, want %v", got, waves*physCols)
	}
	if got := led.Count(energy.ChargingOp); got != waves*physCols {
		t.Errorf("charging ops = %v, want %v", got, waves*physCols)
	}
	if got := led.Count(energy.IAdderOp); got != waves*physCols {
		t.Errorf("I-adder ops = %v, want %v", got, waves*physCols)
	}
	// Horizontal shifts: G/S − 1 = 2 per input.
	if got := led.Count(energy.XSubBufOp); got != nIn*2 {
		t.Errorf("X-subBuf ops = %v, want %v (shift reuse)", got, nIn*2)
	}
	outN := float64(res.Out.Shape.Size())
	if got := led.Count(energy.L1Write); got != outN {
		t.Errorf("L1 writes = %v, want %v", got, outN)
	}
	if got := led.Count(energy.ReLUOp); got != outN {
		t.Errorf("ReLU ops = %v, want %v", got, outN)
	}
	if got := led.Count(energy.CrossbarOp); got != waves {
		t.Errorf("crossbar ops = %v, want %v (1 crossbar per wave)", got, waves)
	}
}

// TestNoiseErrorGrowsWithSigma: the psum RMS error must increase
// monotonically (within sampling tolerance) with the X-subBuf noise. The
// layer spans two grid columns (X-subBuf hops) and three grid rows
// (P-subBuf mirrors) so every noisy path is exercised.
func TestNoiseErrorGrowsWithSigma(t *testing.T) {
	rng := stats.NewRNG(31)
	rows, d := 600, 80
	in := tensor.NewInt(1, 1, rows)
	for i := range in.Data {
		in.Data[i] = int32(rng.Intn(256))
	}
	weights := make([][]int, d)
	ref := make([][]int32, d)
	for di := range weights {
		weights[di] = make([]int, rows)
		ref[di] = make([]int32, rows)
		for k := range weights[di] {
			v := rng.Intn(255) - 127
			weights[di][k] = v
			ref[di][k] = int32(v)
		}
	}
	want := tensor.FC(in, ref, nil)
	rms := func(xSigma, pSigma float64) float64 {
		noise := &analog.Noise{XSubBufSigma: xSigma, PSubBufRelSigma: pSigma,
			RNG: stats.NewRNG(77)}
		got, _, err := RunFC(Options{Noise: noise, InterfaceBits: 24}, in, weights, false)
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]float64, len(want))
		for i := range want {
			errs[i] = float64(got[i] - int(want[i]))
		}
		return stats.RMS(errs)
	}
	e0 := rms(0, 0)
	e1 := rms(20, 0.002)
	e2 := rms(200, 0.02)
	if e1 <= e0 {
		t.Errorf("rms(20ps)=%v not above rms(0)=%v", e1, e0)
	}
	if e2 <= e1 {
		t.Errorf("rms(200ps)=%v not above rms(20ps)=%v", e2, e1)
	}
}

// TestDeviceVariationShiftsPsums: programmed conductance variation perturbs
// results but preserves zero-input behaviour.
func TestDeviceVariationShiftsPsums(t *testing.T) {
	noise := &analog.Noise{RNG: stats.NewTrialRNG(55, 0)}
	s := NewSubChip(Options{Noise: noise, InterfaceBits: 24})
	m, err := s.MapDense([][]int{{10, -20, 30, 40}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyDeviceVariation(0.05); err != nil {
		t.Fatal(err)
	}
	zero, err := m.Compute([]int{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if zero[0] != 0 {
		t.Errorf("zero input gave psum %d", zero[0])
	}
	got, err := m.Compute([]int{100, 100, 100, 100})
	if err != nil {
		t.Fatal(err)
	}
	want := 100 * (10 - 20 + 30 + 40)
	if got[0] == want {
		t.Logf("variation left psum unchanged (possible but unlikely)")
	}
	if math.Abs(float64(got[0]-want)) > 0.2*math.Abs(float64(want))+float64(int64(4)<<m.ScaleShift) {
		t.Errorf("5%% variation moved psum %d -> %d: too far", want, got[0])
	}
}

// TestIRDropShrinksPsums: wire-resistance attenuation must reduce psum
// magnitudes monotonically with the coefficient.
func TestIRDropShrinksPsums(t *testing.T) {
	rows := 300 // spans two grid rows so row position matters
	weights := [][]int{make([]int, rows)}
	inputs := make([]int, rows)
	for i := 0; i < rows; i++ {
		weights[0][i] = 100
		inputs[i] = 200
	}
	psumAt := func(alpha float64) int {
		s := NewSubChip(Options{InterfaceBits: 24})
		s.ApplyIRDrop(alpha)
		m, err := s.MapDense(weights)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Compute(inputs)
		if err != nil {
			t.Fatal(err)
		}
		return got[0]
	}
	ideal := psumAt(0)
	if want := 300 * 100 * 200; ideal != want {
		t.Fatalf("ideal psum = %d, want %d", ideal, want)
	}
	mild := psumAt(0.1)
	harsh := psumAt(0.5)
	if !(harsh < mild && mild < ideal) {
		t.Errorf("IR drop not monotone: ideal %d, mild %d, harsh %d", ideal, mild, harsh)
	}
}

// Test16BitWeightsExact: the 16-bit configuration (4 nibble columns per
// weight arm) must stay bit-exact in ideal-interface mode.
func Test16BitWeightsExact(t *testing.T) {
	rng := stats.NewRNG(23)
	cfg := params.DefaultTimely(16)
	s := NewSubChip(Options{Config: cfg, InterfaceBits: 30})
	rows, d := 24, 5
	weights := make([][]int, d)
	for di := range weights {
		weights[di] = make([]int, rows)
		for k := range weights[di] {
			weights[di][k] = rng.Intn(65535) - 32767
		}
	}
	m, err := s.MapDense(weights)
	if err != nil {
		t.Fatal(err)
	}
	if m.colsPerArm != 4 {
		t.Fatalf("16-bit colsPerArm = %d, want 4", m.colsPerArm)
	}
	inputs := make([]int, rows)
	for i := range inputs {
		inputs[i] = rng.Intn(256)
	}
	got, err := m.Compute(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for di := range weights {
		want := 0
		for k := range inputs {
			want += inputs[k] * weights[di][k]
		}
		if got[di] != want {
			t.Errorf("16-bit psum[%d] = %d, want %d", di, got[di], want)
		}
	}
}

func TestScaleShiftChoice(t *testing.T) {
	// A heavy column (all max weights) must force a large enough scale that
	// full-scale inputs do not saturate.
	s := NewSubChip(Options{})
	rows := 64
	w := make([][]int, 1)
	w[0] = make([]int, rows)
	for i := range w[0] {
		w[0][i] = 127
	}
	m, err := s.MapDense(w)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]int, rows)
	for i := range inputs {
		inputs[i] = 255
	}
	got, err := m.Compute(inputs)
	if err != nil {
		t.Fatal(err)
	}
	want := 255 * 127 * rows
	if math.Abs(float64(got[0]-want)) > m.QuantizationBound() {
		t.Errorf("full-scale psum = %d, want %d ± %v", got[0], want, m.QuantizationBound())
	}
}
