package reram

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// naiveCond recomputes a cell's effective conductance exactly as the
// original per-call path did, independently of the flat cache.
func naiveCond(x *Crossbar, row, col int) float64 {
	g := float64(x.levels[row*x.B+col])
	if x.variation != nil {
		g *= 1 + x.variation[row*x.B+col]
	}
	if x.irDrop != 0 {
		g /= 1 + x.irDrop*float64(row+col)/float64(2*x.B)
	}
	return g
}

// naiveColumnDot is the reference per-element kernel: per-cell conductance
// recomputation, per-term division, zero-conductance terms skipped.
func naiveColumnDot(x *Crossbar, times []float64, col int, tdel float64) float64 {
	dot := 0.0
	for i, t := range times {
		if g := naiveCond(x, i, col); g != 0 {
			dot += t / tdel * g
		}
	}
	return dot
}

// randomCrossbar builds a crossbar with random levels and, depending on the
// seed, variation, IR drop and stuck-at faults — every branch of the
// conductance path.
func randomCrossbar(seed uint64, b int) (*Crossbar, *stats.RNG) {
	rng := stats.NewRNG(seed)
	x := New(b, 4)
	for r := 0; r < b; r++ {
		for c := 0; c < b; c++ {
			if err := x.Program(r, c, uint8(rng.Intn(16))); err != nil {
				panic(err)
			}
		}
	}
	if seed%2 == 0 {
		x.ApplyVariation(0.05, rng)
	}
	if seed%3 == 0 {
		x.SetIRDrop(0.2)
	}
	if seed%5 == 0 {
		if _, err := x.InjectStuckFaults(0.05, rng); err != nil {
			panic(err)
		}
	}
	return x, rng
}

func randomTimes(rng *stats.RNG, n int) []float64 {
	times := make([]float64, n)
	for i := range times {
		times[i] = float64(rng.Intn(256)) * 50
	}
	return times
}

// TestDotColumnsMatchesColumnDot is the property test for the flat kernels:
// across random crossbars (with variation, IR drop and faults), DotColumns
// must reproduce the per-element reference exactly — the flat cache holds
// the same values and the kernels keep the same per-column accumulation
// order — and on the integral ones the integer DotLevelsBatch must agree
// with both.
func TestDotColumnsMatchesColumnDot(t *testing.T) {
	f := func(seed uint64) bool {
		const b = 24
		x, rng := randomCrossbar(seed, b)
		rows := 1 + rng.Intn(b)
		times := randomTimes(rng, rows)
		const tdel = 50.0

		// Single-column kernel vs naive reference.
		for col := 0; col < b; col++ {
			if got, want := x.ColumnDot(times, col, tdel), naiveColumnDot(x, times, col, tdel); got != want {
				t.Logf("seed %d col %d: ColumnDot %v != naive %v", seed, col, got, want)
				return false
			}
		}
		// Multi-column kernel vs per-column calls.
		scaled := make([]float64, rows)
		for i, tt := range times {
			scaled[i] = tt / tdel
		}
		out := make([]float64, b)
		x.DotColumns(scaled, 0, b, out)
		for col := 0; col < b; col++ {
			if want := x.ColumnDot(times, col, tdel); out[col] != want {
				t.Logf("seed %d col %d: DotColumns %v != ColumnDot %v", seed, col, out[col], want)
				return false
			}
		}
		// On an integral crossbar the integer batch kernel must reproduce
		// per-vector DotColumns exactly: every float term is an exact
		// integer, so the float sums are exact too.
		if !x.Integral() {
			return true
		}
		const nvec = 3
		batch := make([]uint8, nvec*rows)
		scaledV := make([]float64, rows)
		for i := range batch {
			batch[i] = uint8(rng.Intn(256))
		}
		bout := make([]int64, nvec*b)
		x.DotLevelsBatch(batch, nvec, rows, rows, b, bout, b)
		single := make([]float64, b)
		for v := 0; v < nvec; v++ {
			for i := range scaledV {
				scaledV[i] = float64(batch[v*rows+i])
			}
			x.DotColumns(scaledV, 0, b, single)
			for col := 0; col < b; col++ {
				if float64(bout[v*b+col]) != single[col] {
					t.Logf("seed %d v %d col %d: levels batch %d != float %v", seed, v, col, bout[v*b+col], single[col])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSubRangedDotMatchesReference checks the recombining decoders still
// produce the exact per-element results through the flat cache.
func TestSubRangedDotMatchesReference(t *testing.T) {
	f := func(seed uint64) bool {
		const b = 16
		x, rng := randomCrossbar(seed, b)
		times := randomTimes(rng, b)
		const tdel = 50.0
		const weightBits = 8
		ncols := (weightBits + x.CellBits - 1) / x.CellBits
		for col0 := 0; col0+ncols <= b; col0++ {
			want := 0.0
			for i := 0; i < ncols; i++ {
				shift := x.CellBits * (ncols - 1 - i)
				want += naiveColumnDot(x, times, col0+i, tdel) * float64(int64(1)<<shift)
			}
			if got := x.SubRangedDot(times, col0, weightBits, tdel); got != want {
				t.Logf("seed %d col0 %d: SubRangedDot %v != %v", seed, col0, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFlatCacheInvalidation covers every mutation that must invalidate the
// cached conductance matrix: program → dot, ApplyVariation → dot differs,
// SetIRDrop → dot differs, fault injection → dot reflects pinned cells.
func TestFlatCacheInvalidation(t *testing.T) {
	rng := stats.NewRNG(99)
	x := New(8, 4)
	times := []float64{50, 100, 150, 200, 250, 300, 350, 400}

	if dot := x.ColumnDot(times, 0, 50); dot != 0 {
		t.Fatalf("erased crossbar dot = %v, want 0", dot)
	}
	// Programming after a dot (cache built) must be visible. Cell (2,0)
	// rather than (0,0) so the IR-drop check below has a nonzero row+col
	// attenuation to observe.
	mustProgram(t, x, 2, 0, 5)
	want := times[2] / 50 * 5
	if dot := x.ColumnDot(times, 0, 50); dot != want {
		t.Fatalf("post-program dot = %v, want %v", dot, want)
	}
	// Variation must change the cached conductances.
	base := x.ColumnDot(times, 0, 50)
	x.ApplyVariation(0.25, rng)
	varied := x.ColumnDot(times, 0, 50)
	if varied == base {
		t.Fatalf("dot unchanged (%v) after ApplyVariation", varied)
	}
	if got, want := varied, naiveColumnDot(x, times, 0, 50); got != want {
		t.Fatalf("varied dot = %v, want %v", got, want)
	}
	// Removing variation must restore the base value.
	x.ApplyVariation(0, rng)
	if dot := x.ColumnDot(times, 0, 50); dot != base {
		t.Fatalf("dot = %v after clearing variation, want %v", dot, base)
	}
	// IR drop must attenuate through the cache.
	x.SetIRDrop(0.5)
	if dot := x.ColumnDot(times, 0, 50); dot >= base {
		t.Fatalf("dot = %v after SetIRDrop, want < %v", dot, base)
	}
	x.SetIRDrop(0)
	if dot := x.ColumnDot(times, 0, 50); dot != base {
		t.Fatalf("dot = %v after clearing IR drop, want %v", dot, base)
	}
	// Stuck-at faults pin levels; the cache must see the pinned values.
	if _, err := x.InjectStuckFaults(1, rng); err != nil {
		t.Fatal(err)
	}
	if got, want := x.ColumnDot(times, 0, 50), naiveColumnDot(x, times, 0, 50); got != want {
		t.Fatalf("faulted dot = %v, want %v", got, want)
	}
}
