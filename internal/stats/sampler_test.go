package stats

import (
	"math"
	"testing"
)

// --- SamplerVersion plumbing ---

func TestSamplerVersionResolve(t *testing.T) {
	if SamplerDefault.Resolve() != SamplerV3 || SamplerV3.Resolve() != SamplerV3 {
		t.Errorf("SamplerDefault/SamplerV3 resolve to %v/%v; want v3", SamplerDefault.Resolve(), SamplerV3.Resolve())
	}
	if got := SamplerV3.String(); got != "v3" {
		t.Errorf("SamplerV3.String() = %q; want the echoed spelling v3", got)
	}
	var zero RNG
	if zero.Philox() || NewRNG(1).Philox() {
		t.Error("zero-value and NewRNG generators must draw the splitmix64 stream")
	}
	if !NewTrialRNG(1, 0).Philox() {
		t.Error("NewTrialRNG must draw the Philox trial stream")
	}
}

// TestV1StreamByteStable pins the NewRNG stream: training and dataset
// synthesis draw from it, so its bytes must not change when the trial
// stream machinery evolves.
func TestV1StreamByteStable(t *testing.T) {
	r := NewRNG(42)
	wantU := []uint64{13679457532755275413, 2949826092126892291, 5139283748462763858}
	for i, w := range wantU {
		if got := r.Uint64(); got != w {
			t.Fatalf("NewRNG Uint64 draw %d = %d; want %d", i, got, w)
		}
	}
	// Intn on NewRNG is the historical modulo reduction of the next draw.
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if got, want := a.Intn(97), int(b.Uint64()%97); got != want {
			t.Fatalf("NewRNG Intn draw %d = %d; want modulo %d", i, got, want)
		}
	}
	// Norm on NewRNG is Box-Muller.
	c, d := NewRNG(9), NewRNG(9)
	for i := 0; i < 100; i++ {
		if got, want := c.Norm(), d.normBoxMuller(); got != want {
			t.Fatalf("NewRNG Norm draw %d = %v; want Box-Muller %v", i, got, want)
		}
	}
}

// TestCloneCarriesSampler: replaying from a clone must reproduce the trial
// stream's deviates exactly (the deferred fault-injection contract).
func TestCloneCarriesSampler(t *testing.T) {
	r := NewTrialRNG(11, 0)
	r.Norm()
	cl := r.Clone()
	if !cl.Philox() {
		t.Fatal("clone dropped the bit source")
	}
	for i := 0; i < 64; i++ {
		if a, b := r.Norm(), cl.Norm(); a != b {
			t.Fatalf("clone diverged at draw %d: %v vs %v", i, a, b)
		}
	}
}

// --- Lemire bounded Intn (trial stream) ---

func TestIntnLemireBounds(t *testing.T) {
	r := NewTrialRNG(3, 0)
	for _, n := range []int{1, 2, 3, 7, 97, 1 << 20} {
		for i := 0; i < 2000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

// TestIntnLemireUniform: chi-square over a small modulus; the Lemire
// reduction must be uniform (the modulo bias at this sample size is far below the
// test's power — this guards gross mapping errors, not the bias itself).
func TestIntnLemireUniform(t *testing.T) {
	const n, draws = 13, 130000
	r := NewTrialRNG(5, 0)
	obs := make([]float64, n)
	for i := 0; i < draws; i++ {
		obs[r.Intn(n)]++
	}
	exp := make([]float64, n)
	for i := range exp {
		exp[i] = draws / float64(n)
	}
	// chi-square_{0.999, 12 df} = 32.91
	if x2 := ChiSquare(obs, exp); x2 > 32.91 {
		t.Fatalf("Intn(13) chi-square %.2f exceeds 32.91", x2)
	}
}

// TestIntnLemireRejection drives the rejection loop with a bound just
// below 2^63, where nearly half of all raw draws are rejected.
func TestIntnLemireRejection(t *testing.T) {
	n := int(uint64(1)<<63 - 25)
	r := NewTrialRNG(17, 0)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(n); v < 0 || v >= n {
			t.Fatalf("Intn(2^63-25) = %d out of range", v)
		}
	}
}

// --- Floyd's SampleK ---

func TestSampleKProperties(t *testing.T) {
	r := NewTrialRNG(23, 0)
	for _, tc := range []struct{ n, k int }{
		{10, 0}, {10, 1}, {10, 10}, {1000, 37}, {1 << 16, 500},
		// Past the bitset bound, the map path must behave identically.
		{1<<22 + 1, 64},
	} {
		seen := map[int]bool{}
		r.SampleK(tc.n, tc.k, func(pos int) {
			if pos < 0 || pos >= tc.n {
				t.Fatalf("SampleK(%d,%d) visited %d out of range", tc.n, tc.k, pos)
			}
			if seen[pos] {
				t.Fatalf("SampleK(%d,%d) visited %d twice", tc.n, tc.k, pos)
			}
			seen[pos] = true
		})
		if len(seen) != tc.k {
			t.Fatalf("SampleK(%d,%d) visited %d positions", tc.n, tc.k, len(seen))
		}
	}
}

// TestSampleKDrawCount: exactly k Intn draws regardless of collisions, so
// interleaved draws replay from clones.
func TestSampleKDrawCount(t *testing.T) {
	for _, k := range []int{1, 5, 50, 100} {
		a := NewTrialRNG(99, 0)
		b := a.Clone()
		a.SampleK(100, k, func(int) {})
		for i := 0; i < k; i++ {
			b.Intn(100 - k + 1 + i)
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("SampleK(100,%d) consumed a different number of draws than k Intn calls", k)
		}
	}
}

// TestSampleKUniform: every position is selected equally often (Floyd's
// algorithm yields a uniform k-subset).
func TestSampleKUniform(t *testing.T) {
	const n, k, reps = 20, 5, 40000
	r := NewTrialRNG(31, 0)
	obs := make([]float64, n)
	for i := 0; i < reps; i++ {
		r.SampleK(n, k, func(pos int) { obs[pos]++ })
	}
	exp := make([]float64, n)
	for i := range exp {
		exp[i] = reps * float64(k) / n
	}
	// chi-square_{0.999, 19 df} = 43.82
	if x2 := ChiSquare(obs, exp); x2 > 43.82 {
		t.Fatalf("SampleK occupancy chi-square %.2f exceeds 43.82", x2)
	}
}

// --- Binomial ---

// binomialPMF returns the exact Binomial(n,p) PMF via the log-gamma-free
// multiplicative recurrence (n is small in the tests that use it).
func binomialPMF(n int, p float64) []float64 {
	pmf := make([]float64, n+1)
	pmf[0] = math.Pow(1-p, float64(n))
	for k := 1; k <= n; k++ {
		pmf[k] = pmf[k-1] * float64(n-k+1) / float64(k) * p / (1 - p)
	}
	return pmf
}

func TestBinomialEdgeCases(t *testing.T) {
	r := NewTrialRNG(1, 0)
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0, .5) = %d", got)
	}
	if got := r.Binomial(100, 0); got != 0 {
		t.Errorf("Binomial(100, 0) = %d", got)
	}
	if got := r.Binomial(100, 1); got != 100 {
		t.Errorf("Binomial(100, 1) = %d", got)
	}
	state := r.Clone()
	if got := r.Binomial(1000, 0); got != 0 {
		t.Errorf("Binomial(1000, 0) = %d", got)
	}
	if r.Uint64() != state.Uint64() {
		t.Error("Binomial(n, 0) consumed deviates; rate-0 draws must be free")
	}
	for i := 0; i < 5000; i++ {
		if got := r.Binomial(5, 0.3); got < 0 || got > 5 {
			t.Fatalf("Binomial(5, .3) = %d out of range", got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Binomial(-1, .5) did not panic")
		}
	}()
	r.Binomial(-1, 0.5)
}

// TestBinomialInversionPMF: the small-mean inversion sampler against the
// exact PMF, chi-square per configuration.
func TestBinomialInversionPMF(t *testing.T) {
	const draws = 60000
	r := NewTrialRNG(7, 0)
	for _, tc := range []struct {
		n int
		p float64
	}{
		{8, 0.25}, {16, 0.1}, {5, 0.5}, {40, 0.05}, {12, 0.75}, // p>.5 exercises symmetry
	} {
		obs := make([]float64, tc.n+1)
		for i := 0; i < draws; i++ {
			obs[r.Binomial(tc.n, tc.p)]++
		}
		pmf := binomialPMF(tc.n, tc.p)
		// Pool bins with tiny expectation into their neighbours so the
		// chi-square approximation holds.
		var obsP, expP []float64
		accO, accE := 0.0, 0.0
		for k := 0; k <= tc.n; k++ {
			accO += obs[k]
			accE += pmf[k] * draws
			if accE >= 10 {
				obsP = append(obsP, accO)
				expP = append(expP, accE)
				accO, accE = 0, 0
			}
		}
		if accE > 0 && len(expP) > 0 {
			obsP[len(obsP)-1] += accO
			expP[len(expP)-1] += accE
		}
		x2 := ChiSquare(obsP, expP)
		// chi-square_{0.999} critical values by pooled df (len-1, ≤ 40):
		// generous fixed bound 2.5x df + 25 covers every configuration here.
		limit := 2.5*float64(len(expP)-1) + 25
		if x2 > limit {
			t.Errorf("Binomial(%d, %v) chi-square %.2f exceeds %.2f over %d bins",
				tc.n, tc.p, x2, limit, len(expP))
		}
	}
}

// TestBinomialBTRSMoments: the large-mean rejection sampler must match the
// binomial mean and variance (the fault-count acceptance criterion).
func TestBinomialBTRSMoments(t *testing.T) {
	const draws = 40000
	r := NewTrialRNG(13, 0)
	for _, tc := range []struct {
		n int
		p float64
	}{
		{65536, 0.001}, {65536, 0.01}, {65536, 0.05}, {65536, 0.15}, {65536, 0.30},
		{4096, 0.02}, {100, 0.2},
	} {
		xs := make([]float64, draws)
		for i := range xs {
			xs[i] = float64(r.Binomial(tc.n, tc.p))
		}
		mean := Mean(xs)
		wantMean := float64(tc.n) * tc.p
		sd := StdDev(xs)
		wantSD := math.Sqrt(float64(tc.n) * tc.p * (1 - tc.p))
		// Mean within 5 standard errors; SD within 5%.
		if se := wantSD / math.Sqrt(draws); math.Abs(mean-wantMean) > 5*se {
			t.Errorf("Binomial(%d, %v) mean %.2f; want %.2f (±%.3f)", tc.n, tc.p, mean, wantMean, 5*se)
		}
		if math.Abs(sd-wantSD)/wantSD > 0.05 {
			t.Errorf("Binomial(%d, %v) stddev %.2f; want %.2f", tc.n, tc.p, sd, wantSD)
		}
	}
}

// TestBinomialBTRSExactPMF: BTRS against the exact PMF at a moderate n
// where every bin is countable — the acceptance test is exact, so the
// histogram must match the true distribution, not just its moments.
func TestBinomialBTRSExactPMF(t *testing.T) {
	const n, p, draws = 120, 0.2, 120000 // n·p = 24 → BTRS path
	r := NewTrialRNG(19, 0)
	obs := make([]float64, n+1)
	for i := 0; i < draws; i++ {
		obs[r.Binomial(n, p)]++
	}
	pmf := binomialPMF(n, p)
	var obsP, expP []float64
	accO, accE := 0.0, 0.0
	for k := 0; k <= n; k++ {
		accO += obs[k]
		accE += pmf[k] * draws
		if accE >= 10 {
			obsP = append(obsP, accO)
			expP = append(expP, accE)
			accO, accE = 0, 0
		}
	}
	if accE > 0 && len(expP) > 0 {
		obsP[len(obsP)-1] += accO
		expP[len(expP)-1] += accE
	}
	x2 := ChiSquare(obsP, expP)
	limit := 2.5*float64(len(expP)-1) + 25
	if x2 > limit {
		t.Fatalf("BTRS chi-square %.2f exceeds %.2f over %d bins", x2, limit, len(expP))
	}
}

// --- Ziggurat ---

func TestZigguratTablesClose(t *testing.T) {
	// The 128-layer constants must close the recursion at the origin
	// before the explicit pin: the last computed edge is numerically zero.
	f := math.Exp(-0.5 * zigR * zigR)
	x := make([]float64, zigLayers+1)
	fs := make([]float64, zigLayers+1)
	x[1], fs[1] = zigR, f
	for i := 2; i <= zigLayers; i++ {
		fs[i] = fs[i-1] + zigV/x[i-1]
		if fs[i] >= 1 {
			x[i] = 0
			continue
		}
		x[i] = math.Sqrt(-2 * math.Log(fs[i]))
	}
	if x[zigLayers] > 0.02 {
		t.Fatalf("ziggurat recursion leaves x[%d] = %v; constants inconsistent", zigLayers, x[zigLayers])
	}
	if math.Abs(fs[zigLayers]-1) > 0.01 {
		t.Fatalf("ziggurat recursion leaves f[%d] = %v; want ~1", zigLayers, fs[zigLayers])
	}
}

// TestZigguratMoments: mean, variance, skewness and excess kurtosis of the
// Ziggurat Gaussian against the standard normal.
func TestZigguratMoments(t *testing.T) {
	const draws = 400000
	r := NewTrialRNG(29, 0)
	var m1, m2, m3, m4 float64
	for i := 0; i < draws; i++ {
		x := r.Norm()
		m1 += x
		m2 += x * x
		m3 += x * x * x
		m4 += x * x * x * x
	}
	n := float64(draws)
	m1, m2, m3, m4 = m1/n, m2/n, m3/n, m4/n
	if math.Abs(m1) > 5/math.Sqrt(n) {
		t.Errorf("ziggurat mean %v; want 0", m1)
	}
	if math.Abs(m2-1) > 0.02 {
		t.Errorf("ziggurat variance %v; want 1", m2)
	}
	if math.Abs(m3) > 0.03 {
		t.Errorf("ziggurat third moment %v; want 0", m3)
	}
	if math.Abs(m4-3) > 0.1 {
		t.Errorf("ziggurat fourth moment %v; want 3", m4)
	}
}

// TestZigguratVsBoxMullerKS: two-sample KS between the two sources' Gaussians —
// the noise-model equivalence the accuracy study relies on.
func TestZigguratVsBoxMullerKS(t *testing.T) {
	const n = 200000
	bm := NewRNG(37)
	zig := NewTrialRNG(41, 0)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = bm.Norm()
		b[i] = zig.Norm()
	}
	d := KSTwoSample(a, b)
	if limit := KSThreshold(0.001, n, n); d > limit {
		t.Fatalf("ziggurat vs Box-Muller KS %.5f exceeds %.5f", d, limit)
	}
}

// TestZigguratTail: the tail sampler must populate |x| > r with the right
// mass (~2·Φ(−3.44) ≈ 5.8e-4) and produce finite values.
func TestZigguratTail(t *testing.T) {
	const draws = 2000000
	r := NewTrialRNG(43, 0)
	tail := 0
	for i := 0; i < draws; i++ {
		x := r.Norm()
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatal("ziggurat produced a non-finite deviate")
		}
		if math.Abs(x) > zigR {
			tail++
		}
	}
	want := 2 * 0.5 * math.Erfc(zigR/math.Sqrt2) * draws
	if got := float64(tail); math.Abs(got-want) > 6*math.Sqrt(want) {
		t.Fatalf("ziggurat tail mass %v draws; want ~%.0f", got, want)
	}
}

// --- Percentile fast paths ---

func TestPercentileSortedMatchesPercentile(t *testing.T) {
	r := NewRNG(3)
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	sorted := append([]float64(nil), xs...)
	sortFloat64s(sorted)
	for _, p := range []float64{-5, 0, 1, 10, 33.3, 50, 90, 99, 100, 120} {
		if got, want := PercentileSorted(sorted, p), Percentile(xs, p); got != want {
			t.Errorf("PercentileSorted(%v) = %v; Percentile = %v", p, got, want)
		}
	}
	if got := PercentileSorted(nil, 50); got != 0 {
		t.Errorf("PercentileSorted(nil) = %v; want 0", got)
	}
}

func TestPercentilesInto(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5}
	ps := []float64{0, 25, 50, 75, 100}
	out := make([]float64, len(ps))
	PercentilesInto(xs, ps, out)
	for i, p := range ps {
		if want := Percentile(xs, p); out[i] != want {
			t.Errorf("PercentilesInto[%v] = %v; want %v", p, out[i], want)
		}
	}
	PercentilesInto(nil, ps, out)
	for i := range out {
		if out[i] != 0 {
			t.Errorf("PercentilesInto(nil)[%d] = %v; want 0", i, out[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short output did not panic")
		}
	}()
	PercentilesInto(xs, ps, out[:2])
}

// sortFloat64s avoids importing sort in the test twice over.
func sortFloat64s(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// --- goodness-of-fit helpers ---

func TestKSTwoSample(t *testing.T) {
	if d := KSTwoSample([]float64{1, 2, 3}, []float64{1, 2, 3}); d != 0 {
		t.Errorf("KS of identical samples = %v; want 0", d)
	}
	if d := KSTwoSample([]float64{0, 1}, []float64{10, 11}); d != 1 {
		t.Errorf("KS of disjoint samples = %v; want 1", d)
	}
	if d := KSTwoSample(nil, []float64{1}); d != 1 {
		t.Errorf("KS with empty sample = %v; want 1", d)
	}
	// D = |F_a − F_b| peaks at 0.5 between interleaved halves.
	if d := KSTwoSample([]float64{1, 2, 3, 4}, []float64{3, 4, 5, 6}); d != 0.5 {
		t.Errorf("KS of shifted samples = %v; want 0.5", d)
	}
}

func TestChiSquare(t *testing.T) {
	if x := ChiSquare([]float64{10, 10}, []float64{10, 10}); x != 0 {
		t.Errorf("chi-square of exact fit = %v; want 0", x)
	}
	if x := ChiSquare([]float64{12, 8}, []float64{10, 10}); math.Abs(x-0.8) > 1e-12 {
		t.Errorf("chi-square = %v; want 0.8", x)
	}
	// Non-positive expectations are skipped.
	if x := ChiSquare([]float64{5, 12}, []float64{0, 10}); math.Abs(x-0.4) > 1e-12 {
		t.Errorf("chi-square with zero-exp bin = %v; want 0.4", x)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	ChiSquare([]float64{1}, []float64{1, 2})
}

// --- benchmarks: the deviate cost claims ---

func BenchmarkNormBoxMuller(b *testing.B) {
	r := NewRNG(1)
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += r.Norm()
	}
	_ = s
}

func BenchmarkIntnModulo(b *testing.B) {
	r := NewRNG(1)
	s := 0
	for i := 0; i < b.N; i++ {
		s += r.Intn(65536)
	}
	_ = s
}

func BenchmarkIntnLemire(b *testing.B) {
	r := NewTrialRNG(1, 0)
	s := 0
	for i := 0; i < b.N; i++ {
		s += r.Intn(65536)
	}
	_ = s
}

func BenchmarkBinomialLowRate(b *testing.B) {
	r := NewTrialRNG(1, 0)
	s := 0
	for i := 0; i < b.N; i++ {
		s += r.Binomial(65536, 0.001)
	}
	_ = s
}

// BenchmarkUint64 isolates the raw bit-source cost under every deviate:
// one splitmix64 round per word (NewRNG) vs one ten-round Philox4x32 block
// per two words (trial stream).
func BenchmarkUint64(b *testing.B) {
	for name, r := range map[string]*RNG{"splitmix": NewRNG(1), "philox": NewTrialRNG(1, 0)} {
		b.Run("source="+name, func(b *testing.B) {
			var s uint64
			for i := 0; i < b.N; i++ {
				s += r.Uint64()
			}
			_ = s
		})
	}
}

// BenchmarkNormPhilox measures the trial-stream Gaussian hot path:
// Ziggurat deviates fed by the counter-based bit source (compare
// BenchmarkNormBoxMuller on the NewRNG stream).
func BenchmarkNormPhilox(b *testing.B) {
	r := NewTrialRNG(1, 0)
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += r.Norm()
	}
	_ = s
}

// BenchmarkSubstream measures keying one (lane, index) substream off a
// trial generator — the per-slot setup cost the v3 fault/variation passes
// pay instead of sharing one serial stream.
func BenchmarkSubstream(b *testing.B) {
	r := NewTrialRNG(1, 0)
	b.ReportAllocs()
	var s uint64
	for i := 0; i < b.N; i++ {
		s += r.Substream(1, uint32(i%1024)).Uint64()
	}
	_ = s
}
