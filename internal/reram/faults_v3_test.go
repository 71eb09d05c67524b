package reram

import (
	"testing"

	"repro/internal/stats"
)

// TestInjectV3MatchesCount: the deferred-injection contract must hold for
// counter-based generators exactly as it does for the serial regimes —
// CountStuckFaults realises the same fault map and leaves the generator in
// the same state as an injection from a clone, at every sweep rate, both
// on a trial's main stream and on a slot substream (the form package core
// actually hands this function under v3).
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
			counted, err := CountStuckFaults(128*128, rate, live)
			if err != nil {
				t.Fatal(err)
			}
			x := New(128, 4)
			injected, err := x.InjectStuckFaults(rate, snap)
			if err != nil {
				t.Fatal(err)
			}
			if counted != injected {
				t.Fatalf("%s rate %v: counted %+v but injected %+v", name, rate, counted, injected)
			}
			if live.Uint64() != snap.Uint64() {
				t.Fatalf("%s rate %v: count and inject consumed different deviate streams", name, rate)
			}
		}
	}
}

// TestInjectV3RateZeroDrawsNothing: v3 shares v2's O(faults) boundary — a
// rate-0 injection consumes no deviates.
func TestInjectV3RateZeroDrawsNothing(t *testing.T) {
	r := stats.NewTrialRNG(5, 0)
	ref := r.Clone()
	x := New(64, 4)
	if _, err := x.InjectStuckFaults(0, r); err != nil {
		t.Fatal(err)
	}
	if r.Uint64() != ref.Uint64() {
		t.Fatal("v3 rate-0 injection consumed deviates")
	}
}

// TestFaultCountsV3BinomialMoments: realised v3 fault counts across
// distinct substreams must match the Binomial(n, rate) mean and variance —
// the keyed streams are independent draws, not copies.
func TestFaultCountsV3BinomialMoments(t *testing.T) {
	const n, reps = 4096, 3000
	base := stats.NewTrialRNG(23, 0)
	for ri, rate := range sweepRates {
		counts := make([]float64, reps)
		for i := 0; i < reps; i++ {
			rng := base.Substream(uint32(ri+1), uint32(i))
			fm, err := CountStuckFaults(n, rate, rng)
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
// total an injection from the same generator state realises, under both
// regimes that take the binomial count first, across the rate range.
func TestStuckFaultCountMatchesInject(t *testing.T) {
	streams := map[string]func() *stats.RNG{
		"v2":            func() *stats.RNG { return stats.NewRNGSampler(23, stats.SamplerV2) },
		"v3-substream":  func() *stats.RNG { return stats.NewTrialRNG(23, 6).Substream(1, 40) },
		"v3-trial-main": func() *stats.RNG { return stats.NewTrialRNG(23, 6) },
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

// TestStuckFaultCountRejects: out-of-range rates and the v1 regime, whose
// count is interleaved with the cell walk, are errors.
func TestStuckFaultCountRejects(t *testing.T) {
	if _, err := StuckFaultCount(64, 1.5, stats.NewTrialRNG(1, 0)); err == nil {
		t.Fatal("rate 1.5 accepted")
	}
	if _, err := StuckFaultCount(64, 0.1, stats.NewRNGSampler(1, stats.SamplerV1)); err == nil {
		t.Fatal("v1 generator accepted")
	}
}
