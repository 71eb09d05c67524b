package analog

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/params"
	"repro/internal/stats"
)

func TestDTCIdeal(t *testing.T) {
	d := NewDTC()
	for _, code := range []int{0, 1, 127, 255} {
		tm, err := d.Convert(code, 0)
		if err != nil {
			t.Fatalf("Convert(%d): %v", code, err)
		}
		if want := float64(code) * params.TDel; tm != want {
			t.Errorf("DTC(%d) = %v ps, want %v", code, tm, want)
		}
	}
}

func TestDTCRangeError(t *testing.T) {
	d := NewDTC()
	if _, err := d.Convert(256, 0); err == nil {
		t.Errorf("DTC accepted code 256")
	}
	if _, err := d.Convert(-1, 0); err == nil {
		t.Errorf("DTC accepted code -1")
	}
}

func TestTDCRoundTrip(t *testing.T) {
	d, c := NewDTC(), NewTDC()
	for code := 0; code < 256; code++ {
		tm, err := d.Convert(code, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Convert(tm, 0); got != code {
			t.Errorf("round trip %d -> %v ps -> %d", code, tm, got)
		}
	}
}

func TestTDCSaturation(t *testing.T) {
	c := NewTDC()
	if got := c.Convert(1e9, 0); got != 255 {
		t.Errorf("late edge = %d, want 255", got)
	}
	if got := c.Convert(-100, 0); got != 0 {
		t.Errorf("early edge = %d, want 0", got)
	}
}

func TestTDCHalfLSBRounding(t *testing.T) {
	c := NewTDC()
	if got := c.Convert(params.TDel*10+params.TDel*0.4, 0); got != 10 {
		t.Errorf("0.4 LSB rounds to %d, want 10", got)
	}
	if got := c.Convert(params.TDel*10+params.TDel*0.6, 0); got != 11 {
		t.Errorf("0.6 LSB rounds to %d, want 11", got)
	}
}

func TestXSubBufIdealIsIdentity(t *testing.T) {
	var x XSubBuf
	if got := x.Propagate(1234.5, 0); got != 1234.5 {
		t.Errorf("ideal X-subBuf changed the signal: %v", got)
	}
	tm := 1234.5
	for hop := 0; hop < 12; hop++ {
		tm = x.Propagate(tm, 0)
	}
	if tm != 1234.5 {
		t.Errorf("ideal 12-hop chain changed the signal: %v", tm)
	}
}

func TestXSubBufCascadeErrorScalesSqrtK(t *testing.T) {
	// Empirical check of the paper's √k·ε rule (§VI-B): the std-dev of a
	// 12-hop chain should be ≈ √12·ε.
	var x XSubBuf
	eps := 10.0
	rng := stats.NewRNG(3)
	const trials = 20000
	errs := make([]float64, trials)
	for i := range errs {
		tm := 5000.0
		for hop := 0; hop < params.MaxCascadedXSubBufs; hop++ {
			tm = x.Propagate(tm, ErrorTerm(eps, rng.Norm()))
		}
		errs[i] = tm - 5000
	}
	got := stats.StdDev(errs)
	want := CascadeErrorBound(params.MaxCascadedXSubBufs, eps)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("12-hop error std = %.2f ps, want ≈ %.2f (√12·ε)", got, want)
	}
}

func TestXSubBufNonNegative(t *testing.T) {
	var x XSubBuf
	rng := stats.NewRNG(1)
	for i := 0; i < 1000; i++ {
		if got := x.Propagate(1, ErrorTerm(1000, rng.Norm())); got < 0 {
			t.Fatalf("negative time signal %v", got)
		}
	}
}

func TestPSubBufIdeal(t *testing.T) {
	var p PSubBuf
	if got := p.Mirror(42, 0); got != 42 {
		t.Errorf("ideal mirror = %v, want 42", got)
	}
}

func TestPSubBufGainErrorStats(t *testing.T) {
	var p PSubBuf
	rng := stats.NewRNG(7)
	const trials = 20000
	outs := make([]float64, trials)
	for i := range outs {
		outs[i] = p.Mirror(100, ErrorTerm(0.01, rng.Norm()))
	}
	if m := stats.Mean(outs); math.Abs(m-100) > 0.05 {
		t.Errorf("mirror mean = %v, want ≈100", m)
	}
	if s := stats.StdDev(outs); math.Abs(s-1) > 0.05 {
		t.Errorf("mirror std = %v, want ≈1 (1%% of 100)", s)
	}
}

func TestIAdder(t *testing.T) {
	var a IAdder
	if got := a.Sum(1, 2, 3.5); got != 6.5 {
		t.Errorf("Sum = %v, want 6.5", got)
	}
	if got := a.Sum(); got != 0 {
		t.Errorf("empty Sum = %v, want 0", got)
	}
}

// TestChargingUnitEq2 checks the Eq. 2 transfer function: the output time is
// proportional to the dot value with the device constants cancelled into
// FullScale.
func TestChargingUnitEq2(t *testing.T) {
	cu := NewChargingUnit(255 * 16) // dot full scale
	tdc := NewTDC()
	for _, dot := range []float64{0, 16, 160, 255 * 16} {
		out := cu.Output(dot, 0)
		code := tdc.Convert(out, 0)
		want := int(math.Round(dot / 16))
		if code != want {
			t.Errorf("dot %v -> code %d, want %d", dot, code, want)
		}
	}
}

func TestChargingUnitSaturates(t *testing.T) {
	cu := NewChargingUnit(100)
	full := 255 * params.TDel
	if got := cu.Output(1e9, 0); got != full {
		t.Errorf("over-range output = %v, want %v", got, full)
	}
	if got := cu.Output(-5, 0); got != 0 {
		t.Errorf("negative dot output = %v, want 0", got)
	}
}

func TestChargingUnitCapRatio(t *testing.T) {
	// The LSB column's Cc/2 capacitor doubles its time gain (§IV-C).
	msb := ChargingUnit{FullScale: 1000, CapRatio: 1, TDel: params.TDel}
	lsb := ChargingUnit{FullScale: 1000, CapRatio: 0.5, TDel: params.TDel}
	if got, want := lsb.Output(100, 0), 2*msb.Output(100, 0); got != want {
		t.Errorf("Cc/2 output = %v, want %v (2x the Cc output)", got, want)
	}
}

func TestChargingUnitPanicsOnZeroFullScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("zero FullScale accepted")
		}
	}()
	ChargingUnit{FullScale: 0, TDel: params.TDel}.Output(1, 0)
}

// Property: the full analog chain DTC -> X-subBuf hops -> charging -> TDC is
// exact (noise-free) for dot products that fit the TDC range with an
// integral scale.
func TestAnalogChainExactProperty(t *testing.T) {
	d, c := NewDTC(), NewTDC()
	var x XSubBuf
	f := func(codes [8]uint8, levels [8]uint8, hops uint8) bool {
		scale := 8 * 15.0 // 8 rows, max level 15: dot ≤ 8·255·15 = scale·255
		cu := NewChargingUnit(scale * 255)
		dot := 0.0
		want := 0.0
		for i := range codes {
			tm, err := d.Convert(int(codes[i]), 0)
			if err != nil {
				return false
			}
			for hop := 0; hop < int(hops%12); hop++ {
				tm = x.Propagate(tm, 0)
			}
			g := float64(levels[i] % 16)
			dot += tm / params.TDel * g
			want += float64(codes[i]) * g
		}
		code := c.Convert(cu.Output(dot, 0), 0)
		return code == int(math.Round(want/scale))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDTCINLBow(t *testing.T) {
	ideal := NewDTC()
	bowed := DTC{Bits: 8, TDel: params.TDel, INL: 0.5}
	// Endpoints are exact; mid-scale deviates by the peak INL.
	for _, code := range []int{0, 255} {
		ti, _ := ideal.Convert(code, 0)
		tb, _ := bowed.Convert(code, 0)
		if math.Abs(ti-tb) > 1e-9 {
			t.Errorf("endpoint code %d moved by INL: %v vs %v", code, tb, ti)
		}
	}
	tiMid, _ := ideal.Convert(128, 0)
	tbMid, _ := bowed.Convert(128, 0)
	dev := (tbMid - tiMid) / params.TDel
	if math.Abs(dev-0.5) > 0.01 {
		t.Errorf("mid-scale INL deviation = %.3f LSB, want ≈0.5", dev)
	}
}

func TestDTCINLPreservesMonotonicity(t *testing.T) {
	d := DTC{Bits: 8, TDel: params.TDel, INL: 0.9}
	prev := -1.0
	for code := 0; code < 256; code++ {
		tm, err := d.Convert(code, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tm <= prev {
			t.Fatalf("sub-LSB INL broke monotonicity at code %d", code)
		}
		prev = tm
	}
}

func TestTDCINLShiftsMidScale(t *testing.T) {
	ideal := NewTDC()
	bowed := TDC{Bits: 8, TDel: params.TDel, INL: 1.0}
	mid := 128 * params.TDel
	ci, cb := ideal.Convert(mid, 0), bowed.Convert(mid, 0)
	if cb >= ci {
		t.Errorf("positive TDC bow should read mid-scale early: %d vs %d", cb, ci)
	}
	// Endpoints unaffected.
	if bowed.Convert(0, 0) != 0 || bowed.Convert(255*params.TDel, 0) != 255 {
		t.Errorf("TDC INL moved the endpoints")
	}
}

func TestMatchedINLCancels(t *testing.T) {
	// A TDC bowed like the DTC re-linearises the chain (the pre-distortion
	// trick of the DTC linearisation literature).
	d := DTC{Bits: 8, TDel: params.TDel, INL: 0.8}
	c := TDC{Bits: 8, TDel: params.TDel, INL: 0.8}
	for code := 0; code < 256; code += 5 {
		tm, err := d.Convert(code, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Convert(tm, 0); got != code {
			t.Errorf("matched-INL round trip %d -> %d", code, got)
		}
	}
}

func TestCascadeErrorBound(t *testing.T) {
	if got := CascadeErrorBound(12, 10); math.Abs(got-math.Sqrt(12)*10) > 1e-12 {
		t.Errorf("CascadeErrorBound = %v", got)
	}
	// The default design point must satisfy the paper's margin (§VI-B).
	if CascadeErrorBound(params.MaxCascadedXSubBufs, params.DefaultXSubBufSigma) > params.TDelMargin {
		t.Errorf("design-point cascade error exceeds the design margin")
	}
}

func TestDefaultNoiseDeterministic(t *testing.T) {
	a, b := DefaultNoise(42), DefaultNoise(42)
	var x XSubBuf
	for i := 0; i < 100; i++ {
		ea, eb := ErrorTerm(a.XSubBufSigma, a.RNG.Norm()), ErrorTerm(b.XSubBufSigma, b.RNG.Norm())
		if x.Propagate(100, ea) != x.Propagate(100, eb) {
			t.Fatalf("same-seed noise diverged at step %d", i)
		}
	}
	if a.Deterministic() || !(&Noise{XSubBufSigma: 1}).Deterministic() {
		t.Fatal("Deterministic must be false exactly when some sigma has an RNG to draw from")
	}
}

// TestErrorTermMatchesGauss: an error term is what stats.RNG.Gauss(0, σ)
// returns for the same deviate, bit for bit, and a −0 deviate gives +0.
func TestErrorTermMatchesGauss(t *testing.T) {
	a, b := stats.NewTrialRNG(9, 1), stats.NewTrialRNG(9, 1)
	for i := 0; i < 1000; i++ {
		sigma := float64(i%7) * 0.37
		if got, want := ErrorTerm(sigma, a.Norm()), b.Gauss(0, sigma); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: ErrorTerm %v, Gauss %v", i, got, want)
		}
	}
	if e := ErrorTerm(2.5, math.Copysign(0, -1)); math.Signbit(e) {
		t.Fatalf("ErrorTerm of a -0 deviate = %v; want +0", e)
	}
}

// FuzzRoundCode checks RoundCode against int(math.Round(x)), the rounding
// it replaces in the quantisers: equal for every x in [0, 2^62] (halves
// round up, as math.Round rounds them away from zero), and for negative x
// both clamp to code 0. Seeds cover k+0.5, its floating-point neighbours,
// negatives and both zeros.
func FuzzRoundCode(f *testing.F) {
	for _, k := range []float64{0, 1, 2, 7, 254, 255, 1 << 20, 1 << 52} {
		h := k + 0.5
		f.Add(h)
		f.Add(math.Nextafter(h, 0))
		f.Add(math.Nextafter(h, math.Inf(1)))
		f.Add(-h)
		f.Add(k)
	}
	f.Add(math.Copysign(0, -1))
	f.Add(0.49999999999999994)
	f.Add(-0.49999999999999994)
	f.Add(math.Float64frombits(1)) // smallest subnormal
	f.Fuzz(func(t *testing.T, x float64) {
		if math.IsNaN(x) || math.Abs(x) > 1<<62 {
			return // int conversion is implementation-specific there
		}
		got, want := RoundCode(x), int(math.Round(x))
		if x >= 0 && got != want {
			t.Fatalf("RoundCode(%v) = %d, math.Round gives %d", x, got, want)
		}
		if x < 0 && (got > 0 || want > 0) {
			t.Fatalf("RoundCode(%v) = %d, math.Round gives %d: a negative position must clamp to code 0", x, got, want)
		}
	})
}
