package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSymmetricRoundTrip(t *testing.T) {
	q, err := NewSymmetric(8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, -0.5, 0, 0.25, 1} {
		code := q.Quantize(x)
		back := float64(code-q.Zero) * q.Scale
		if math.Abs(back-x) > q.Scale/2+1e-12 {
			t.Errorf("round trip %v -> %d -> %v exceeds half-LSB", x, code, back)
		}
	}
}

func TestSymmetricZeroIsExact(t *testing.T) {
	q, _ := NewSymmetric(8, 3.7)
	if got := float64(q.Quantize(0)-q.Zero) * q.Scale; got != 0 {
		t.Errorf("zero not exactly representable: %v", got)
	}
}

func TestUnsignedSaturation(t *testing.T) {
	q, _ := NewUnsigned(8, 1.0)
	if c := q.Quantize(2.0); c != 255 {
		t.Errorf("over-range code = %d, want 255", c)
	}
	if c := q.Quantize(-1.0); c != 0 {
		t.Errorf("under-range code = %d, want 0", c)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := NewSymmetric(0, 1); err == nil {
		t.Errorf("bits=0 accepted")
	}
	if _, err := NewSymmetric(8, 0); err == nil {
		t.Errorf("range=0 accepted")
	}
	if _, err := NewUnsigned(17, 1); err == nil {
		t.Errorf("bits=17 accepted")
	}
	if _, err := CalibrateSymmetric(8, nil); err != ErrEmpty {
		t.Errorf("empty calibration error = %v, want ErrEmpty", err)
	}
	if _, err := CalibrateUnsigned(8, nil); err != ErrEmpty {
		t.Errorf("empty calibration error = %v, want ErrEmpty", err)
	}
}

func TestCalibrate(t *testing.T) {
	qs, err := CalibrateSymmetric(8, []float64{-2, 0.5, 1.9})
	if err != nil {
		t.Fatal(err)
	}
	if qs.Quantize(-2) != qs.Zero-127 {
		t.Errorf("calibrated max-abs does not hit extreme code: %d", qs.Quantize(-2))
	}
	qu, err := CalibrateUnsigned(8, []float64{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if qu.Quantize(3) != 255 {
		t.Errorf("calibrated max does not hit 255: %d", qu.Quantize(3))
	}
}

func TestCalibrateAllZero(t *testing.T) {
	q, err := CalibrateSymmetric(8, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if q.Scale <= 0 {
		t.Errorf("degenerate calibration produced scale %v", q.Scale)
	}
}

func TestSplitCombineKnown(t *testing.T) {
	// 0xAB split into 4-bit nibbles must give [0xA, 0xB].
	nb := Split(0xAB, 8, 4)
	if len(nb) != 2 || nb[0] != 0xA || nb[1] != 0xB {
		t.Fatalf("Split(0xAB) = %v", nb)
	}
	if got := Combine(nb, 4); got != 0xAB {
		t.Errorf("Combine = %#x, want 0xAB", got)
	}
	// 16-bit over 4-bit cells -> 4 nibbles.
	nb16 := Split(0x1234, 16, 4)
	want := []uint8{1, 2, 3, 4}
	for i := range want {
		if nb16[i] != want[i] {
			t.Fatalf("Split(0x1234) = %v", nb16)
		}
	}
	// 16-bit over 2-bit cells (ISAAC layout) -> 8 dibits.
	if got := len(Split(0xFFFF, 16, 2)); got != 8 {
		t.Errorf("16b/2b Split length = %d, want 8", got)
	}
}

func TestSplitPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Split(256, 8, 4) did not panic")
		}
	}()
	Split(256, 8, 4)
}

func TestSplitCombineProperty(t *testing.T) {
	f := func(v uint16, cellSel uint8) bool {
		cellBits := []int{1, 2, 4, 8}[int(cellSel)%4]
		return Combine(Split(int(v), 16, cellBits), cellBits) == int(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantizeMonotoneProperty(t *testing.T) {
	q, _ := NewSymmetric(8, 10)
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return q.Quantize(a) <= q.Quantize(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClampInt(t *testing.T) {
	if ClampInt(5, 0, 3) != 3 || ClampInt(-1, 0, 3) != 0 || ClampInt(2, 0, 3) != 2 {
		t.Errorf("ClampInt broken")
	}
}
