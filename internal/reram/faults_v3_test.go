package reram

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// sweepRates are the defect ablation's stuck-at rates (the nonzero ones);
// the distribution tests below run at every point.
var sweepRates = []float64{0.001, 0.01, 0.05, 0.15, 0.30}

// TestInjectV3MatchesCount: the deferred-injection contract — an injection
// replayed from a clone realises exactly the fault map and cells the first
// injection did, and leaves the generator in the same state, at every
// sweep rate, both on a trial's main stream and on a slot substream (the
// form package core actually hands this function).
func TestInjectV3MatchesCount(t *testing.T) {
	streams := map[string]func() *stats.RNG{
		"trial-main": func() *stats.RNG { return stats.NewTrialRNG(17, 4) },
		"slot-substream": func() *stats.RNG {
			return stats.NewTrialRNG(17, 4).Substream(1, 9)
		},
	}
	for name, mk := range streams {
		for _, rate := range append([]float64{0, 1}, sweepRates...) {
			live := mk()
			snap := live.Clone()
			x, y := New(128, 4), New(128, 4)
			first, err := x.InjectStuckFaults(rate, live)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := y.InjectStuckFaults(rate, snap)
			if err != nil {
				t.Fatal(err)
			}
			if first != replayed {
				t.Fatalf("%s rate %v: first injection %+v but replay %+v", name, rate, first, replayed)
			}
			if live.Uint64() != snap.Uint64() {
				t.Fatalf("%s rate %v: injection and replay consumed different deviate streams", name, rate)
			}
			var sa0, sa1 int
			for r := 0; r < 128; r++ {
				for c := 0; c < 128; c++ {
					if x.IsFaulty(r, c) != y.IsFaulty(r, c) || x.Level(r, c) != y.Level(r, c) {
						t.Fatalf("%s rate %v: replay differs at cell (%d,%d)", name, rate, r, c)
					}
					switch {
					case !x.IsFaulty(r, c):
					case x.Level(r, c) == 0:
						sa0++
					default:
						sa1++
					}
				}
			}
			if sa0 != first.SA0 || sa1 != first.SA1 {
				t.Fatalf("%s rate %v: fault map %+v disagrees with cells (%d/%d)", name, rate, first, sa0, sa1)
			}
		}
	}
}

// TestInjectV3RateZeroDrawsNothing: the O(faults) claim at its boundary —
// a rate-0 injection consumes no deviates.
func TestInjectV3RateZeroDrawsNothing(t *testing.T) {
	r := stats.NewTrialRNG(5, 0)
	ref := r.Clone()
	x := New(64, 4)
	if _, err := x.InjectStuckFaults(0, r); err != nil {
		t.Fatal(err)
	}
	if r.Uint64() != ref.Uint64() {
		t.Fatal("rate-0 injection consumed deviates")
	}
}

// TestFaultCountsV3BinomialMoments: realised fault counts across distinct
// substreams must match the Binomial(n, rate) mean and variance —
// the keyed streams are independent draws, not copies.
func TestFaultCountsV3BinomialMoments(t *testing.T) {
	const n, reps = 4096, 3000
	base := stats.NewTrialRNG(23, 0)
	for ri, rate := range sweepRates {
		counts := make([]float64, reps)
		for i := 0; i < reps; i++ {
			rng := base.Substream(uint32(ri+1), uint32(i))
			fm, err := New(64, 4).InjectStuckFaults(rate, rng)
			if err != nil {
				t.Fatal(err)
			}
			counts[i] = float64(fm.Total())
		}
		var sum, sq float64
		for _, c := range counts {
			sum += c
		}
		mean := sum / reps
		for _, c := range counts {
			d := c - mean
			sq += d * d
		}
		variance := sq / (reps - 1)
		wantMean := float64(n) * rate
		wantVar := float64(n) * rate * (1 - rate)
		// 5-sigma tolerance on the sample mean; 25% on the variance.
		if d := mean - wantMean; d*d > 25*wantVar/reps {
			t.Errorf("rate %v: substream fault-count mean %.1f, want %.1f", rate, mean, wantMean)
		}
		if variance < 0.75*wantVar || variance > 1.25*wantVar {
			t.Errorf("rate %v: substream fault-count variance %.1f, want ~%.1f", rate, variance, wantVar)
		}
	}
}

// TestStuckFaultCountMatchesInject: the count-only draw must return the
// total an injection from the same generator state realises, across the
// rate range.
func TestStuckFaultCountMatchesInject(t *testing.T) {
	streams := map[string]func() *stats.RNG{
		"substream":  func() *stats.RNG { return stats.NewTrialRNG(23, 6).Substream(1, 40) },
		"trial-main": func() *stats.RNG { return stats.NewTrialRNG(23, 6) },
	}
	for name, mk := range streams {
		for _, rate := range []float64{0, 0.001, 0.05, 0.3, 1} {
			orig := mk()
			n, err := StuckFaultCount(128*128, rate, orig.Clone())
			if err != nil {
				t.Fatal(err)
			}
			fm, err := New(128, 4).InjectStuckFaults(rate, orig)
			if err != nil {
				t.Fatal(err)
			}
			if n != fm.Total() {
				t.Fatalf("%s rate %v: count-only draw %d, injection realised %d", name, rate, n, fm.Total())
			}
		}
	}
}

// TestStuckFaultCountRejects: rates outside [0,1] are errors.
func TestStuckFaultCountRejects(t *testing.T) {
	for _, rate := range []float64{-0.1, 1.5} {
		if _, err := StuckFaultCount(64, rate, stats.NewTrialRNG(1, 0)); err == nil {
			t.Fatalf("rate %v accepted", rate)
		}
	}
}

// bernoulliFaults is the per-cell reference the sublinear injection must
// match in distribution: each of n cells faults independently with
// probability rate, and each fault is SA0 or SA1 with probability ½. It
// adds every faulted cell to the position histogram pos (cell index
// bucketed into len(pos) equal ranges) and returns the polarity counts.
func bernoulliFaults(n int, rate float64, rng *stats.RNG, pos []float64) FaultMap {
	var fm FaultMap
	for i := 0; i < n; i++ {
		if rng.Float64() >= rate {
			continue
		}
		pos[i*len(pos)/n]++
		if rng.Float64() < 0.5 {
			fm.SA0++
		} else {
			fm.SA1++
		}
	}
	return fm
}

// homogeneity is the chi-square statistic of the hypothesis that two
// binned samples share one distribution (df = bins − 1).
func homogeneity(a, b []float64) float64 {
	var ta, tb float64
	for i := range a {
		ta += a[i]
		tb += b[i]
	}
	obs := append(append([]float64(nil), a...), b...)
	exp := make([]float64, 0, len(obs))
	for _, tot := range []float64{ta, tb} {
		for i := range a {
			exp = append(exp, tot*(a[i]+b[i])/(ta+tb))
		}
	}
	return stats.ChiSquare(obs, exp)
}

// TestFaultDrawsMatchBernoulliReference: at every sweep rate the
// binomial-count / Floyd-position / per-fault-polarity injection must be
// indistinguishable from the per-cell Bernoulli reference — a two-sample
// KS test on the per-crossbar fault totals, and chi-square homogeneity
// tests on the pooled SA0/SA1 split and on the fault-position histogram.
func TestFaultDrawsMatchBernoulliReference(t *testing.T) {
	if testing.Short() {
		t.Skip("the reference walks every cell")
	}
	const b, reps, bins = 128, 400, 16
	const n = b * b
	// chi-square 0.999 critical values at 1 and bins−1 = 15 df.
	const critSplit, critPos = 10.83, 37.70
	for ri, rate := range sweepRates {
		ref := stats.NewRNG(31 + uint64(ri))
		base := stats.NewTrialRNG(37, uint32(ri))
		refTot, injTot := make([]float64, reps), make([]float64, reps)
		refPos, injPos := make([]float64, bins), make([]float64, bins)
		var refSplit, injSplit [2]float64
		for i := 0; i < reps; i++ {
			rf := bernoulliFaults(n, rate, ref, refPos)
			x := New(b, 4)
			fm, err := x.InjectStuckFaults(rate, base.Substream(1, uint32(i)))
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < n; c++ {
				if x.IsFaulty(c/b, c%b) {
					injPos[c*bins/n]++
				}
			}
			refTot[i], injTot[i] = float64(rf.Total()), float64(fm.Total())
			refSplit[0] += float64(rf.SA0)
			refSplit[1] += float64(rf.SA1)
			injSplit[0] += float64(fm.SA0)
			injSplit[1] += float64(fm.SA1)
		}
		if d, limit := stats.KSTwoSample(refTot, injTot), stats.KSThreshold(0.001, reps, reps); d > limit {
			t.Errorf("rate %v: fault-total KS %.4f exceeds %.4f", rate, d, limit)
		}
		if x2 := homogeneity(refSplit[:], injSplit[:]); x2 > critSplit {
			t.Errorf("rate %v: SA0/SA1 split chi-square %.2f exceeds %.2f", rate, x2, critSplit)
		}
		if x2 := homogeneity(refPos, injPos); x2 > critPos {
			t.Errorf("rate %v: position histogram chi-square %.2f exceeds %.2f", rate, x2, critPos)
		}
		// Sanity on the reference itself: its mean total is n·rate.
		if m, sd := stats.Mean(refTot), math.Sqrt(n*rate*(1-rate)/reps); math.Abs(m-n*rate) > 5*sd {
			t.Fatalf("rate %v: reference mean total %.1f, want %.1f", rate, m, n*rate)
		}
	}
}
