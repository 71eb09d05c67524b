package core

import (
	"testing"

	"repro/internal/analog"
	"repro/internal/stats"
)

// v3SubChip builds a sub-chip whose noise RNG is a counter-based trial
// generator.
func v3SubChip(trial uint32) *SubChip {
	return NewSubChip(Options{
		Noise:         &analog.Noise{RNG: stats.NewTrialRNG(77, trial)},
		InterfaceBits: 24,
	})
}

// cellsEqual fails the test at the first crossbar cell whose fault flag or
// level differs between the two sub-chips.
func cellsEqual(t *testing.T, a, b *SubChip, label string) {
	t.Helper()
	for gr := 0; gr < a.cfg.GridRows; gr++ {
		for gc := 0; gc < a.cfg.GridCols; gc++ {
			xa, xb := a.Crossbar(gr, gc), b.Crossbar(gr, gc)
			for r := 0; r < xa.B; r++ {
				for c := 0; c < xa.B; c++ {
					if xa.IsFaulty(r, c) != xb.IsFaulty(r, c) || xa.Level(r, c) != xb.Level(r, c) {
						t.Fatalf("%s: crossbar (%d,%d) cell (%d,%d) differs", label, gr, gc, r, c)
					}
				}
			}
		}
	}
}

// TestV3EagerLazyInjectionIdentical: under the counter-based regime the
// deferred-injection replay must land the identical cells whether every
// crossbar is materialised before the injection or only afterwards — the
// same contract the serial regimes honour, now carried by per-slot keyed
// substreams instead of snapshot points on one shared stream.
func TestV3EagerLazyInjectionIdentical(t *testing.T) {
	mk := func(eager bool) *SubChip {
		sc := v3SubChip(3)
		if eager {
			for i := range sc.grid {
				sc.xbar(i)
			}
		}
		if _, err := sc.InjectFaults(0.02); err != nil {
			t.Fatal(err)
		}
		return sc
	}
	cellsEqual(t, mk(true), mk(false), "eager vs lazy")
}

// TestV3InjectionOrderIndependence: materialising the grid in reverse slot
// order after a lazy injection must replay the same faults — each slot's
// draws come from its own (lane, pass·slots+slot) substream, so no slot
// depends on when any other slot is touched.
func TestV3InjectionOrderIndependence(t *testing.T) {
	forward, reverse := v3SubChip(5), v3SubChip(5)
	for _, sc := range []*SubChip{forward, reverse} {
		if _, err := sc.InjectFaults(0.05); err != nil {
			t.Fatal(err)
		}
	}
	for i := range forward.grid {
		forward.xbar(i)
	}
	for i := len(reverse.grid) - 1; i >= 0; i-- {
		reverse.xbar(i)
	}
	cellsEqual(t, forward, reverse, "forward vs reverse materialisation")
}

// TestV3InjectFaultsLeavesMainStreamUntouched: fault injection under v3
// draws only from the faults lane; the main noise stream that orders the
// compute path's deviates must not advance, so accuracy results cannot
// shift with how many injection passes preceded the compute.
func TestV3InjectFaultsLeavesMainStreamUntouched(t *testing.T) {
	sc := v3SubChip(1)
	ref := sc.noise.RNG.Clone()
	if _, err := sc.InjectFaults(0.1); err != nil {
		t.Fatal(err)
	}
	sc.ApplyDeviceVariation(0.1)
	if sc.noise.RNG.Uint64() != ref.Uint64() {
		t.Fatal("v3 fault/variation passes advanced the main noise stream")
	}
}

// TestV3RepeatedPassesDrawFreshStreams: a second injection pass on the same
// sub-chip must key fresh pass-indexed substreams, not replay the first
// pass's draws. If it replayed, the second pass would land on exactly the
// already-faulted cells and the cumulative faulty-cell count would not
// grow; fresh streams pick new positions almost surely.
func TestV3RepeatedPassesDrawFreshStreams(t *testing.T) {
	sc := v3SubChip(2)
	count := func() int {
		x := sc.Crossbar(0, 0)
		n := 0
		for r := 0; r < x.B; r++ {
			for c := 0; c < x.B; c++ {
				if x.IsFaulty(r, c) {
					n++
				}
			}
		}
		return n
	}
	if _, err := sc.InjectFaults(0.05); err != nil {
		t.Fatal(err)
	}
	after1 := count()
	if _, err := sc.InjectFaults(0.05); err != nil {
		t.Fatal(err)
	}
	if after2 := count(); after2 <= after1 {
		t.Fatalf("second injection pass landed no new cells (%d then %d faulty): pass substreams replayed",
			after1, after2)
	}
}

// TestV3EagerLazyFaultTotals: the stuck-cell total InjectFaults returns —
// the count the defect ablation prints — must not depend on whether the
// slots were materialised (full injection) or deferred (count-only draw),
// and must equal the number of faulty cells once every slot is replayed.
func TestV3EagerLazyFaultTotals(t *testing.T) {
	for _, rate := range []float64{0.15, 0.30} {
		inject := func(eager bool) (*SubChip, int) {
			sc := v3SubChip(4)
			if eager {
				for i := range sc.grid {
					sc.xbar(i)
				}
			}
			n, err := sc.InjectFaults(rate)
			if err != nil {
				t.Fatal(err)
			}
			return sc, n
		}
		_, eager := inject(true)
		lazy, lazyTotal := inject(false)
		if eager != lazyTotal {
			t.Fatalf("rate %v: eager total %d, lazy total %d", rate, eager, lazyTotal)
		}
		faulty := 0
		for i := range lazy.grid {
			x := lazy.xbar(i)
			for r := 0; r < x.B; r++ {
				for c := 0; c < x.B; c++ {
					if x.IsFaulty(r, c) {
						faulty++
					}
				}
			}
		}
		if faulty != lazyTotal {
			t.Fatalf("rate %v: InjectFaults returned %d, materialised grid has %d faulty cells",
				rate, lazyTotal, faulty)
		}
	}
}
