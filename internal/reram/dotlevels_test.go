package reram

import (
	"testing"

	"repro/internal/stats"
)

// naiveLevelDots is the per-cell reference for DotLevelsBatch: every output
// is Σᵢ code·level(i, col) accumulated term by term from the read-back
// levels. Each term is an exact integer, so the float sum is exact.
func naiveLevelDots(x *Crossbar, codes []uint8, nvec, istride, rows, ncols int) []float64 {
	ref := make([]float64, nvec*ncols)
	for v := 0; v < nvec; v++ {
		for j := 0; j < ncols; j++ {
			for i := 0; i < rows; i++ {
				ref[v*ncols+j] += float64(codes[v*istride+i]) * float64(x.Level(i, j))
			}
		}
	}
	return ref
}

// checkLevelDots runs DotLevelsBatch once and compares every output with
// the naive reference.
func checkLevelDots(t *testing.T, x *Crossbar, codes []uint8, nvec, istride, rows, ncols, ostride int) {
	t.Helper()
	out := make([]int64, nvec*ostride)
	x.DotLevelsBatch(codes, nvec, istride, rows, ncols, out, ostride)
	ref := naiveLevelDots(x, codes, nvec, istride, rows, ncols)
	for v := 0; v < nvec; v++ {
		for j := 0; j < ncols; j++ {
			if got, want := out[v*ostride+j], ref[v*ncols+j]; float64(got) != want {
				t.Fatalf("B=%d cellBits=%d rows=%d cols=%d v=%d col %d: DotLevelsBatch %d != reference %v",
					x.B, x.CellBits, rows, ncols, v, j, got, want)
			}
		}
	}
}

// FuzzDotLevelsBatch checks the SWAR integer kernel against the per-cell
// reference over random geometries, cell widths, column counts, strides
// and stuck-at fault maps, then again after a reprogrammed cell and a
// different row count (a different lane width), so the packed cache's
// invalidation and repacking are exercised too. worst pins the lane bound:
// rows = B, every code 255, every level at its maximum before the faults
// land — the largest column sum any lane can hold.
func FuzzDotLevelsBatch(f *testing.F) {
	f.Add(uint64(1), uint8(255), uint8(3), uint8(0), uint8(255), uint8(3), uint8(0), true)
	f.Add(uint64(2), uint8(255), uint8(7), uint8(0), uint8(255), uint8(2), uint8(40), true)
	f.Add(uint64(3), uint8(31), uint8(3), uint8(8), uint8(17), uint8(9), uint8(10), false)
	f.Add(uint64(4), uint8(8), uint8(0), uint8(200), uint8(3), uint8(1), uint8(255), false)
	f.Fuzz(func(t *testing.T, seed uint64, bsel, cbsel, rsel, ncsel, nvsel, fsel uint8, worst bool) {
		b := 1 + int(bsel)
		cellBits := 1 + int(cbsel%8)
		rng := stats.NewRNG(seed)
		x := New(b, cellBits)
		for r := 0; r < b; r++ {
			for c := 0; c < b; c++ {
				level := x.MaxLevel()
				if !worst {
					level = uint8(rng.Intn(int(x.MaxLevel()) + 1))
				}
				if err := x.Program(r, c, level); err != nil {
					t.Fatal(err)
				}
			}
		}
		if fsel > 0 {
			if _, err := x.InjectStuckFaults(float64(fsel)/255*0.3, rng); err != nil {
				t.Fatal(err)
			}
		}
		rows := int(rsel) % (b + 1)
		ncols := int(ncsel) % (b + 1)
		nvec := 1 + int(nvsel%8)
		istride, ostride := rows+int(seed%3), ncols+int(seed>>2%2)
		if worst {
			rows, ncols = b, b
			istride, ostride = b, b
		}
		codes := make([]uint8, nvec*istride)
		for i := range codes {
			codes[i] = 255
			if !worst {
				codes[i] = uint8(rng.Intn(256))
			}
		}
		checkLevelDots(t, x, codes, nvec, istride, rows, ncols, ostride)

		// Reprogram one cell (a stuck one ignores it) and change the row
		// count: the cached packed rows must follow.
		r, c := rng.Intn(b), rng.Intn(b)
		if err := x.Program(r, c, uint8(rng.Intn(int(x.MaxLevel())+1))); err != nil {
			t.Fatal(err)
		}
		rows2 := rng.Intn(b + 1)
		codes2 := make([]uint8, nvec*rows2)
		for i := range codes2 {
			codes2[i] = uint8(rng.Intn(256))
		}
		checkLevelDots(t, x, codes2, nvec, rows2, rows2, b, b)
	})
}

// TestDotLevelsLaneWidth pins the lane widths the kernel derives from
// rows·255·MaxLevel: the conv bank's 9 rows of 4-bit cells fit four 16-bit
// lanes per word, a full 256-row array three 20-bit lanes, 8-bit cells two
// 24-bit lanes.
func TestDotLevelsLaneWidth(t *testing.T) {
	for _, tc := range []struct{ b, cellBits, rows, width, lanes int }{
		{256, 4, 9, 16, 4},
		{256, 4, 256, 20, 3},
		{256, 8, 256, 24, 2},
		{256, 4, 1, 12, 5},
	} {
		w := New(tc.b, tc.cellBits).laneWidth(tc.rows)
		if w != tc.width || 64/w != tc.lanes {
			t.Errorf("B=%d cellBits=%d rows=%d: width %d (%d lanes), want %d (%d lanes)",
				tc.b, tc.cellBits, tc.rows, w, 64/w, tc.width, tc.lanes)
		}
	}
}

// TestPackedCacheInvalidation: every level mutation after a kernel call —
// Program, fault injection, ClearFaults followed by reprogramming — must
// show in the next DotLevelsBatch result.
func TestPackedCacheInvalidation(t *testing.T) {
	rng := stats.NewRNG(5)
	const b = 12
	x := New(b, 4)
	codes := make([]uint8, 2*b)
	for i := range codes {
		codes[i] = uint8(1 + rng.Intn(255))
	}
	check := func(stage string) {
		t.Helper()
		out := make([]int64, 2*b)
		x.DotLevelsBatch(codes, 2, b, b, b, out, b)
		ref := naiveLevelDots(x, codes, 2, b, b, b)
		for i, got := range out {
			if float64(got) != ref[i] {
				t.Fatalf("%s: output %d = %d, want %v", stage, i, got, ref[i])
			}
		}
	}
	check("erased")
	mustProgram(t, x, 3, 4, 9)
	check("program")
	if _, err := x.InjectStuckFaults(0.3, rng); err != nil {
		t.Fatal(err)
	}
	check("faults")
	x.ClearFaults()
	mustProgram(t, x, 0, 0, 15)
	check("clear+program")
}
