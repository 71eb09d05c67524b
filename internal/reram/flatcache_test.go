package reram

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// naiveColumnDot is the reference per-element kernel: each cell's level
// read back independently of the flat cache, per-term division,
// zero-level terms skipped.
func naiveColumnDot(x *Crossbar, times []float64, col int, tdel float64) float64 {
	dot := 0.0
	for i, t := range times {
		if g := float64(x.Level(i, col)); g != 0 {
			dot += t / tdel * g
		}
	}
	return dot
}

// randomCrossbar builds a crossbar with random levels and, depending on the
// seed, stuck-at faults.
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
	if seed%3 == 0 {
		if _, err := x.InjectStuckFaults(0.05, rng); err != nil {
			panic(err)
		}
	}
	return x, rng
}

// randomTimes draws n input times: whole DTC codes or, with fractional
// set, any time in the code range, as a noisy wave's drawn errors leave
// them, so the float kernels see non-integral terms.
func randomTimes(rng *stats.RNG, n int, fractional bool) []float64 {
	times := make([]float64, n)
	for i := range times {
		if fractional {
			times[i] = rng.Float64() * 255 * 50
		} else {
			times[i] = float64(rng.Intn(256)) * 50
		}
	}
	return times
}

// TestDotColumnsMatchesColumnDot is the property test for the flat kernels:
// across random crossbars (some with faults) and input times (fractional
// for odd seeds), DotColumns must reproduce the per-element reference
// exactly — the flat cache holds the same values and the kernels keep the
// same per-column accumulation order — and on integer codes the integer
// DotLevelsBatch must agree with both.
func TestDotColumnsMatchesColumnDot(t *testing.T) {
	f := func(seed uint64) bool {
		const b = 24
		x, rng := randomCrossbar(seed, b)
		rows := 1 + rng.Intn(b)
		times := randomTimes(rng, rows, seed%2 == 1)
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
		// On integer codes the integer batch kernel must reproduce
		// per-vector DotColumns exactly: every float term is an exact
		// integer, so the float sums are exact too.
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
		times := randomTimes(rng, b, seed%2 == 1)
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
// cached float level matrix: program → dot, reprogram → dot differs, fault
// injection → dot reflects pinned cells.
func TestFlatCacheInvalidation(t *testing.T) {
	rng := stats.NewRNG(99)
	x := New(8, 4)
	times := []float64{50, 100, 150, 200, 250, 300, 350, 400}

	if dot := x.ColumnDot(times, 0, 50); dot != 0 {
		t.Fatalf("erased crossbar dot = %v, want 0", dot)
	}
	// Programming after a dot (cache built) must be visible.
	mustProgram(t, x, 2, 0, 5)
	want := times[2] / 50 * 5
	if dot := x.ColumnDot(times, 0, 50); dot != want {
		t.Fatalf("post-program dot = %v, want %v", dot, want)
	}
	// Reprogramming a cell the cache already holds must be visible too.
	mustProgram(t, x, 2, 0, 9)
	if got, want := x.ColumnDot(times, 0, 50), times[2]/50*9; got != want {
		t.Fatalf("post-reprogram dot = %v, want %v", got, want)
	}
	// Stuck-at faults pin levels; the cache must see the pinned values.
	if _, err := x.InjectStuckFaults(1, rng); err != nil {
		t.Fatal(err)
	}
	if got, want := x.ColumnDot(times, 0, 50), naiveColumnDot(x, times, 0, 50); got != want {
		t.Fatalf("faulted dot = %v, want %v", got, want)
	}
}
