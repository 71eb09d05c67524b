package reram

import (
	"fmt"
	"testing"

	"repro/internal/stats"
)

// benchCrossbar builds a fully programmed 256×256 crossbar with device
// variation, the worst case for the per-cell conductance path.
func benchCrossbar(b *testing.B, withVariation bool) (*Crossbar, []float64) {
	b.Helper()
	rng := stats.NewRNG(7)
	x := New(256, 4)
	for r := 0; r < x.B; r++ {
		for c := 0; c < x.B; c++ {
			if err := x.Program(r, c, uint8(rng.Intn(int(x.MaxLevel())+1))); err != nil {
				b.Fatal(err)
			}
		}
	}
	if withVariation {
		x.ApplyVariation(0.02, rng)
	}
	times := make([]float64, x.B)
	for i := range times {
		times[i] = float64(rng.Intn(256)) * 50
	}
	return x, times
}

// BenchmarkColumnDot measures one single-column analog dot product — the
// innermost kernel of the functional simulator.
func BenchmarkColumnDot(b *testing.B) {
	x, times := benchCrossbar(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += x.ColumnDot(times, i%x.B, 50)
	}
	_ = sink
}

// BenchmarkDotColumns measures the flat matrix–vector kernel computing all
// 256 column dots in one pass (amortised cost per column ≈ 1/256 of the
// reported figure).
func BenchmarkDotColumns(b *testing.B) {
	x, times := benchCrossbar(b, true)
	scaled := make([]float64, len(times))
	for i, t := range times {
		scaled[i] = t / 50
	}
	out := make([]float64, x.B)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.DotColumns(scaled, 0, x.B, out)
	}
}

// BenchmarkDotLevelsBatch measures the integer SWAR matrix–matrix kernel
// of the noise-free datapath on a 64-vector batch (one batchBlock of the
// deterministic forward path) in two shapes: the defect CNN's conv bank
// (9 rows × 32 columns, four 16-bit lanes per word) and a full 256-row
// array (three 20-bit lanes).
func BenchmarkDotLevelsBatch(b *testing.B) {
	for _, shape := range []struct{ rows, cols int }{{9, 32}, {256, 256}} {
		b.Run(fmt.Sprintf("rows=%d/cols=%d", shape.rows, shape.cols), func(b *testing.B) {
			x, times := benchCrossbar(b, false)
			const nvec = 64
			rows := shape.rows
			codes := make([]uint8, nvec*rows)
			for v := 0; v < nvec; v++ {
				for i := range rows {
					codes[v*rows+i] = uint8(times[(v+i)%len(times)] / 50)
				}
			}
			out := make([]int64, nvec*shape.cols)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.DotLevelsBatch(codes, nvec, rows, rows, shape.cols, out, shape.cols)
			}
		})
	}
}

// BenchmarkSubRangedDot measures a recombined two-nibble weight-column dot.
func BenchmarkSubRangedDot(b *testing.B) {
	x, times := benchCrossbar(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += x.SubRangedDot(times, (i%(x.B/2))*2, 8, 50)
	}
	_ = sink
}
