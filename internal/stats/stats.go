// Package stats provides the deterministic random-number generation and
// small statistics helpers used across the simulator: splitmix64 and
// Philox4x32-10 PRNGs, Gaussian sampling for circuit-noise injection,
// geometric means for the paper's summary rows, Monte-Carlo utilities, and
// the goodness-of-fit statistics (Kolmogorov–Smirnov, Pearson chi-square)
// that defend the fault and noise draws against reference distributions.
//
// Everything is deterministic given a seed so experiments and tests are
// exactly reproducible. An RNG draws from one of two bit sources: the
// serial splitmix64 stream of NewRNG, which trains the classifiers and
// synthesises their datasets, and the counter-based Philox trial stream of
// NewTrialRNG, keyed by (seed, trial, slot), which carries every
// Monte-Carlo fault and noise draw (see SamplerVersion).
package stats

import (
	"math"
	"sort"
)

// RNG is a deterministic pseudo-random generator. The zero value is a valid
// generator seeded with 0; prefer NewRNG for explicit seeding.
//
// The bit source fixes the deviate algorithms. NewRNG generators (and the
// zero value) run the serial splitmix64 stream with Box-Muller Gaussians
// and modulo-reduced Intn; training and dataset synthesis depend on those
// exact streams, so they stay byte-stable. NewTrialRNG and Substream
// generators run the Philox4x32-10 counter stream with Ziggurat Gaussians
// and Lemire bounded Intn (see philox.go); Binomial and SampleK build the
// fault draws on top of either.
type RNG struct {
	// state is the splitmix64 state (NewRNG bit source).
	state uint64
	// key/ctr are the Philox key and 128-bit counter (trial bit source);
	// buf holds the blocks of the last refill, and its last bufn uint64s
	// are not yet served.
	key  [2]uint32
	ctr  [4]uint32
	buf  [2 * philoxLanes]uint64
	bufn uint8
	// cached spare Gaussian deviate (Box-Muller generates pairs)
	spare    float64
	hasSpare bool
	// philox selects the counter-based bit source and its deviate
	// algorithms; the zero value draws splitmix64.
	philox bool
}

// NewRNG returns a generator seeded with seed on the serial splitmix64
// stream (NewTrialRNG builds the Monte-Carlo trial streams).
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Clone returns an independent generator that will produce exactly the same
// deviate sequence as the receiver from this point on. The functional
// simulator snapshots generators to replay deferred per-crossbar fault
// injection deterministically.
func (r *RNG) Clone() *RNG {
	cp := *r
	return &cp
}

// Philox reports whether the generator draws from the counter-based trial
// stream (NewTrialRNG, Substream) rather than the serial NewRNG stream.
func (r *RNG) Philox() bool { return r.philox }

// Uint64 returns the next 64 pseudo-random bits: the splitmix64 stream
// for NewRNG generators, the Philox4x32-10 counter stream for trial
// generators.
func (r *RNG) Uint64() uint64 {
	if r.philox {
		return r.philoxNext()
	}
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform deviate in [0,1). The compiler turns the
// division into an exact multiplication by 2^-53; the explicit conversion
// keeps that product from fusing into a caller's add once inlined.
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / float64(1<<53))
}

// Intn returns a uniform integer in [0,n). It panics if n <= 0. NewRNG
// generators keep the historical modulo reduction (slightly biased for n
// not dividing 2^64, preserved for stream stability); trial generators use
// Lemire's bounded rejection, which is exactly uniform.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	if r.philox {
		return int(r.intnLemire(uint64(n)))
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard-normal deviate: Box-Muller for NewRNG
// generators, the Ziggurat method for trial generators (~4x fewer cycles
// per deviate in the noise hot path).
func (r *RNG) Norm() float64 {
	if r.philox {
		return r.normZiggurat()
	}
	return r.normBoxMuller()
}

// normBoxMuller is the polar Box-Muller sampler (generates pairs, caching
// the spare).
func (r *RNG) normBoxMuller() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = float64(2*r.Float64()) - 1
		v = float64(2*r.Float64()) - 1
		s = float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// Gauss returns a normal deviate with the given mean and standard deviation.
func (r *RNG) Gauss(mean, sigma float64) float64 {
	return mean + float64(sigma*r.Norm())
}

// Shuffle permutes the first n indices, calling swap for each exchange.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(xs)))
}

// GeoMean returns the geometric mean of xs. All entries must be positive;
// it returns 0 for an empty slice and panics on non-positive entries, since
// the paper's normalized-ratio summaries are only defined on positives.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic("stats: GeoMean of non-positive value")
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It copies and sorts its input; use
// PercentileSorted on already-sorted data or PercentilesInto when several
// percentiles come from one sample, both of which skip the per-call copy.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return PercentileSorted(cp, p)
}

// PercentileSorted is the sorted-input fast path of Percentile: xs must be
// ascending; the call neither copies nor sorts.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := float64(p / 100 * float64(len(sorted)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// PercentilesInto computes several percentiles of one sample with a single
// copy-and-sort, writing out[i] = Percentile(xs, ps[i]). It panics when
// len(out) < len(ps). The sweeps use it to summarise a Monte-Carlo sample
// (e.g. p10/p50/p90) without re-sorting per percentile.
func PercentilesInto(xs []float64, ps []float64, out []float64) {
	if len(out) < len(ps) {
		panic("stats: PercentilesInto output shorter than percentile list")
	}
	if len(xs) == 0 {
		for i := range ps {
			out[i] = 0
		}
		return
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	for i, p := range ps {
		out[i] = PercentileSorted(cp, p)
	}
}

// MaxAbs returns the maximum absolute value in xs (0 for empty input).
func MaxAbs(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// RMS returns the root-mean-square of xs.
func RMS(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += float64(x * x)
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Histogram counts xs into nbins equal-width bins over [lo, hi]. Values
// outside the range clamp to the first/last bin.
func Histogram(xs []float64, lo, hi float64, nbins int) []int {
	if nbins <= 0 {
		return nil
	}
	bins := make([]int, nbins)
	if hi <= lo {
		return bins
	}
	w := (hi - lo) / float64(nbins)
	for _, x := range xs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= nbins {
			i = nbins - 1
		}
		bins[i]++
	}
	return bins
}
