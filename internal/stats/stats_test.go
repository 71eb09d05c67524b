package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical values", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", x)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) hit only %d distinct values in 10k draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(123)
	n := 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm()
	}
	if m := Mean(xs); math.Abs(m) > 0.01 {
		t.Errorf("Norm mean = %v, want ≈0", m)
	}
	if s := StdDev(xs); math.Abs(s-1) > 0.01 {
		t.Errorf("Norm stddev = %v, want ≈1", s)
	}
}

func TestGauss(t *testing.T) {
	r := NewRNG(5)
	n := 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Gauss(10, 2)
	}
	if m := Mean(xs); math.Abs(m-10) > 0.05 {
		t.Errorf("Gauss mean = %v, want ≈10", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 0.05 {
		t.Errorf("Gauss stddev = %v, want ≈2", s)
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 100})
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("GeoMean(1,100) = %v, want 10", got)
	}
	if GeoMean(nil) != 0 {
		t.Errorf("GeoMean(nil) != 0")
	}
}

func TestGeoMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("GeoMean with zero entry did not panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRMSAndMaxAbs(t *testing.T) {
	xs := []float64{3, -4}
	if got := RMS(xs); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMS = %v", got)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := NewRNG(9)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, 10)
	for _, x := range xs {
		seen[x] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("Shuffle lost element %d", i)
		}
	}
}

func TestGeoMeanBetweenMinMax(t *testing.T) {
	// Property: min ≤ geomean ≤ max for any positive inputs.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range raw {
			xs[i] = float64(v)/100 + 0.01
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := GeoMean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
