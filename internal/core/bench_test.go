package core

import (
	"fmt"
	"testing"

	"repro/internal/analog"
	"repro/internal/params"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// benchConvInputs builds the small convolution the functional pipeline is
// verified on (3×8×8 input, eight 3×3 filters).
func benchConvInputs() (*tensor.Int, *tensor.Filter) {
	rng := stats.NewRNG(1)
	in := tensor.NewInt(3, 8, 8)
	for i := range in.Data {
		in.Data[i] = int32(rng.Intn(256))
	}
	f := tensor.NewFilter(8, 3, 3, 3)
	for i := range f.Data {
		f.Data[i] = int32(rng.Intn(255)) - 127
	}
	return in, f
}

// BenchmarkConvForward measures one full functional convolution through the
// analog datapath (ideal-interface mode).
func BenchmarkConvForward(b *testing.B) {
	in, f := benchConvInputs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunConv(IdealOptions(nil), in, f, 1, 1, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForwardBatch measures the deterministic batched forward path on
// the defect study's two layer shapes — the 9-row conv bank over one
// image's 144 patches and the 288→32 head layer, one vector at a time as
// per-image inference drives it and in blocks of 64 — at the lossless
// 24-bit interface (one integer product with the effective weights) and
// at the Table II 8-bit interface (per-column quantisation). The noisy
// cases are the §VI-B study's 16→48 and 48→4 layers at design-point noise
// with the 12-hop input cascade, one wave per call as the study drives
// them: the bulk Gaussian fill and the wave kernel.
func BenchmarkForwardBatch(b *testing.B) {
	for _, c := range []struct {
		name    string
		d, rows int
	}{
		{"noisy/fc16x48", 48, 16},
		{"noisy/fc48x4", 4, 48},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := params.DefaultTimely(8)
			w := randomDense(stats.NewRNG(3), c.d, c.rows, cfg.WeightBits)
			m, err := NewSubChip(Options{
				Noise:         analog.DefaultNoiseRNG(stats.NewTrialRNG(2020, 0)),
				InterfaceBits: 24,
				InputHops:     params.MaxCascadedXSubBufs,
			}).MapDense(w)
			if err != nil {
				b.Fatal(err)
			}
			in := randomBatch(stats.NewRNG(4), 1, c.rows)
			out := make([]int, c.d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.ForwardBatch(in, 1, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, c := range []struct {
		name          string
		d, rows, nvec int
	}{
		{"conv9x8/nvec=144", 8, 9, 144},
		{"fc288x32/nvec=1", 32, 288, 1},
		{"fc288x32/nvec=64", 32, 288, 64},
	} {
		for _, bits := range []int{24, 8} {
			b.Run(fmt.Sprintf("%s/if=%d", c.name, bits), func(b *testing.B) {
				cfg := params.DefaultTimely(8)
				w := randomDense(stats.NewRNG(3), c.d, c.rows, cfg.WeightBits)
				m, err := NewSubChip(Options{InterfaceBits: bits}).MapDense(w)
				if err != nil {
					b.Fatal(err)
				}
				in := randomBatch(stats.NewRNG(4), c.nvec, c.rows)
				out := make([]int, c.nvec*c.d)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := m.ForwardBatch(in, c.nvec, out); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
