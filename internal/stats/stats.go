// Package stats provides the deterministic random-number generation and
// small statistics helpers used across the simulator: splitmix64 and
// Philox4x32-10 PRNGs, Gaussian sampling for circuit-noise injection,
// geometric means for the paper's summary rows, Monte-Carlo utilities, and
// the goodness-of-fit statistics (Kolmogorov–Smirnov, Pearson chi-square)
// that defend the sampling regimes' statistical equivalence.
//
// Everything is deterministic given a seed so experiments and tests are
// exactly reproducible. Deviate algorithms are versioned: see
// SamplerVersion for the v1 (legacy, byte-stable), v2 (sublinear binomial
// fault draws, Ziggurat Gaussians, Lemire bounded Intn) and v3
// (counter-based Philox substreams keyed by (seed, trial, slot), the
// trial-parallel default) regimes.
package stats

import (
	"math"
	"sort"
)

// RNG is a deterministic pseudo-random generator. The zero value is a valid
// generator seeded with 0; prefer NewRNG for explicit seeding.
//
// An RNG samples under one of three regimes (see SamplerVersion): the zero
// value and NewRNG keep the legacy v1 regime, so every pre-existing deviate
// stream stays byte-stable; NewRNGSampler and SetSampler opt into the
// sublinear v2 regime (Ziggurat Gaussians, Lemire Intn, and the
// Binomial/SampleK fault-draw machinery) or the counter-based v3 regime
// (the v2 deviate algorithms over a Philox4x32-10 bit source with keyed
// substreams; see philox.go, NewTrialRNG and Substream).
type RNG struct {
	// state is the splitmix64 state (v1/v2 bit source).
	state uint64
	// key/ctr are the Philox key and 128-bit counter (v3 bit source); buf
	// holds the blocks of the last refill, and its last bufn uint64s are
	// not yet served.
	key  [2]uint32
	ctr  [4]uint32
	buf  [2 * philoxLanes]uint64
	bufn uint8
	// cached spare Gaussian deviate (Box-Muller generates pairs; v1 only)
	spare    float64
	hasSpare bool
	// sampler selects the bit source and deviate algorithms; the zero value
	// samples v1.
	sampler SamplerVersion
}

// NewRNG returns a generator seeded with seed, sampling under the legacy
// v1 regime (see NewRNGSampler for regime selection).
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Clone returns an independent generator that will produce exactly the same
// deviate sequence as the receiver from this point on. The functional
// simulator snapshots generators to replay deferred per-crossbar fault
// injection deterministically.
func (r *RNG) Clone() *RNG {
	cp := *r
	return &cp
}

// Uint64 returns the next 64 pseudo-random bits: the splitmix64 stream
// under v1/v2, the Philox4x32-10 counter stream under v3.
func (r *RNG) Uint64() uint64 {
	if r.sampler == SamplerV3 {
		return r.philoxNext()
	}
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform deviate in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform integer in [0,n). It panics if n <= 0. Under the
// v1 regime it keeps the historical modulo reduction (slightly biased for
// n not dividing 2^64, preserved for stream stability); under v2/v3 it
// uses Lemire's bounded rejection, which is exactly uniform.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	if r.sampler >= SamplerV2 {
		return int(r.intnLemire(uint64(n)))
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard-normal deviate: Box-Muller under the v1 regime,
// the Ziggurat method under v2/v3 (~4x fewer cycles per deviate in the
// noise hot path; see the distribution-equivalence tests).
func (r *RNG) Norm() float64 {
	if r.sampler >= SamplerV2 {
		return r.normZiggurat()
	}
	return r.normBoxMuller()
}

// normBoxMuller is the legacy polar Box-Muller sampler (generates pairs,
// caching the spare).
func (r *RNG) normBoxMuller() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
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
	return mean + sigma*r.Norm()
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
		s += d * d
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
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
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
		s += x * x
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
