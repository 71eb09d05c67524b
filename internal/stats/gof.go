package stats

import (
	"math"
	"sort"
)

// Goodness-of-fit statistics. The sublinear fault and noise draws do not
// reproduce the deviates of a naive per-cell Bernoulli walk or of
// Box-Muller, so their defense is statistical: the fault-count, polarity,
// position and noise distributions must be indistinguishable from those
// references at the test sizes the suite uses. These helpers implement the
// two classical tests the distribution tests apply.

// KSTwoSample returns the two-sample Kolmogorov–Smirnov statistic
// D = sup |F_a(x) − F_b(x)| over the empirical CDFs of a and b. Both
// inputs are copied and sorted; either being empty returns 1 (maximal
// disagreement) so a degenerate comparison can never pass a threshold.
func KSTwoSample(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	na, nb := float64(len(as)), float64(len(bs))
	var i, j int
	d := 0.0
	for i < len(as) && j < len(bs) {
		// Advance past ties together so the CDFs are compared between
		// jump points, not mid-jump.
		x := as[i]
		if bs[j] < x {
			x = bs[j]
		}
		for i < len(as) && as[i] == x {
			i++
		}
		for j < len(bs) && bs[j] == x {
			j++
		}
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	return d
}

// KSThreshold returns the large-sample two-sample rejection threshold for
// the KS statistic at significance alpha: c(α)·sqrt((n+m)/(n·m)) with
// c(α) = sqrt(−ln(α/2)/2). A statistic below the threshold is consistent
// with both samples sharing one distribution at that significance.
func KSThreshold(alpha float64, n, m int) float64 {
	if n <= 0 || m <= 0 || alpha <= 0 || alpha >= 1 {
		return 0
	}
	c := math.Sqrt(-math.Log(alpha/2) / 2)
	return c * math.Sqrt(float64(n+m)/float64(n*m))
}

// ChiSquare returns Pearson's statistic Σ (obs−exp)²/exp over paired
// observed/expected bin counts. Bins with non-positive expectation are
// skipped (callers should pool sparse bins first). It panics when the
// slices disagree in length.
func ChiSquare(obs, exp []float64) float64 {
	if len(obs) != len(exp) {
		panic("stats: ChiSquare length mismatch")
	}
	s := 0.0
	for i, e := range exp {
		if e <= 0 {
			continue
		}
		d := obs[i] - e
		s += d * d / e
	}
	return s
}
