package core

import (
	"fmt"
	"testing"

	"repro/internal/analog"
	"repro/internal/params"
	"repro/internal/stats"
)

// faultedLayer maps a random d×rows layer at the given interface width onto
// a sub-chip whose cells were first pinned as stuck-at faults at rate (none
// at rate 0), under a zero-sigma trial-stream noise so the layer stays on
// the deterministic path — the defect study's configuration.
func faultedLayer(t *testing.T, ifBits, d, rows int, rate float64, seed uint64) *MappedLayer {
	t.Helper()
	s := NewSubChip(Options{Noise: &analog.Noise{RNG: stats.NewTrialRNG(seed, 0)}, InterfaceBits: ifBits})
	if rate > 0 {
		if _, err := s.InjectFaults(rate); err != nil {
			t.Fatal(err)
		}
	}
	m, err := s.MapDense(randomDense(stats.NewRNG(seed+1), d, rows, s.cfg.WeightBits))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkAgainstCompute fails unless ForwardBatch over in equals one fresh
// per-wave Compute per vector, and returns the batched psums.
func checkAgainstCompute(t *testing.T, name string, m *MappedLayer, in []int) []int {
	t.Helper()
	nvec := len(in) / m.Rows
	got := make([]int, nvec*m.D)
	if err := m.ForwardBatch(in, nvec, got); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < nvec; v++ {
		want, err := m.Compute(in[v*m.Rows : (v+1)*m.Rows])
		if err != nil {
			t.Fatal(err)
		}
		for d, w := range want {
			if got[v*m.D+d] != w {
				t.Fatalf("%s: wave %d psum[%d]: batch %d != compute %d", name, v, d, got[v*m.D+d], w)
			}
		}
	}
	return got
}

// TestLosslessProductMatchesQuantiser: at the 24-bit interface the
// quantiser is the identity, so ForwardBatch runs one integer product with
// the fault-inclusive effective weights. Its psums must equal both the
// quantising kernel, called directly on the same codes, and per-wave
// Compute — across one, nine and 288 rows (two grid rows), a D that fits
// one grid column and one that spans two, and fault rates 0, 0.01 and 0.3.
func TestLosslessProductMatchesQuantiser(t *testing.T) {
	const nvec = 11
	for _, rows := range []int{1, 9, 288} {
		for _, d := range []int{5, 70} {
			for _, rate := range []float64{0, 0.01, 0.3} {
				name := fmt.Sprintf("rows=%d/d=%d/rate=%g", rows, d, rate)
				m := faultedLayer(t, 24, d, rows, rate, uint64(rows*d)+7)
				if !m.BatchDeterministic() || m.ScaleShift != 0 || m.effectiveWeights() == nil {
					t.Fatalf("%s: layer is not on the lossless path (shift %d)", name, m.ScaleShift)
				}
				in := randomBatch(stats.NewRNG(uint64(rows)+13), nvec, rows)
				got := checkAgainstCompute(t, name, m, in)
				codes := make([]uint8, len(in))
				for i, c := range in {
					codes[i] = uint8(c)
				}
				quant := make([]int, nvec*d)
				m.quantiseBlock(codes, nvec, quant)
				for i, q := range quant {
					if got[i] != q {
						t.Fatalf("%s: psum %d: product %d != quantising kernel %d", name, i, got[i], q)
					}
				}
			}
		}
	}
}

// TestLosslessCacheFollowsWrites: the cached effective weights must never
// outlive a write to a crossbar the layer reads. After a first ForwardBatch
// builds the cache, each write below changes the layer's psums, and the
// next ForwardBatch must match a fresh per-wave Compute — through a
// rebuilt matrix while the crossbars stay integral, through the per-wave
// path while variation or IR drop makes them non-integral.
func TestLosslessCacheFollowsWrites(t *testing.T) {
	const d, rows, nvec = 6, 300, 5 // two grid rows
	m := faultedLayer(t, 24, d, rows, 0, 3)
	s := m.sc
	in := randomBatch(stats.NewRNG(5), nvec, rows)
	prev := checkAgainstCompute(t, "mapped", m, in)
	for _, step := range []struct {
		name  string
		write func()
	}{
		{"Program", func() {
			x := s.Crossbar(1, 0)
			if err := x.Program(10, 0, x.Level(10, 0)^7); err != nil {
				t.Fatal(err)
			}
		}},
		{"ProgramWeightColumns", func() {
			codes := make([]int, s.cfg.B)
			for i := range codes {
				codes[i] = 255
			}
			if _, err := s.Crossbar(0, 0).ProgramWeightColumns(4, codes, s.cfg.WeightBits); err != nil {
				t.Fatal(err)
			}
		}},
		{"InjectFaults", func() {
			if _, err := s.InjectFaults(0.2); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetIRDrop", func() { s.Crossbar(0, 0).SetIRDrop(0.3) }},
		{"SetIRDrop-off", func() {
			s.Crossbar(0, 0).SetIRDrop(0)
			if err := s.Crossbar(0, 0).Program(0, 1, s.Crossbar(0, 0).Level(0, 1)^5); err != nil {
				t.Fatal(err)
			}
		}},
		{"ApplyVariation", func() { s.Crossbar(1, 0).ApplyVariation(0.05, stats.NewTrialRNG(7, 0)) }},
		{"ApplyVariation-off", func() {
			s.Crossbar(1, 0).ApplyVariation(0, nil)
			if err := s.Crossbar(1, 0).Program(3, 2, s.Crossbar(1, 0).Level(3, 2)^9); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		step.write()
		got := checkAgainstCompute(t, step.name, m, in)
		if fmt.Sprint(got) == fmt.Sprint(prev) {
			t.Fatalf("%s: the write left every psum unchanged; the check proves nothing", step.name)
		}
		if m.BatchDeterministic() && m.effectiveWeights() == nil {
			t.Fatalf("%s: integral 24-bit layer left the product path", step.name)
		}
		prev = got
	}
}

// TestLosslessNeedsUnclampedColumns: a layer whose ScaleShift is 0 at
// mapping time but whose column totals can reach the TDC clamp afterwards
// (stuck-at-max cells injected into an erased 200-row layer at a 16-bit
// interface) must leave the product path and still match Compute, clamp
// included.
func TestLosslessNeedsUnclampedColumns(t *testing.T) {
	const d, rows, nvec = 4, 200, 6
	s := NewSubChip(Options{Noise: &analog.Noise{RNG: stats.NewTrialRNG(9, 0)}, InterfaceBits: 16})
	zero := make([][]int, d)
	for i := range zero {
		zero[i] = make([]int, rows)
	}
	m, err := s.MapDense(zero)
	if err != nil {
		t.Fatal(err)
	}
	if m.ScaleShift != 0 || m.effectiveWeights() == nil {
		t.Fatalf("erased layer not lossless (shift %d)", m.ScaleShift)
	}
	if _, err := s.InjectFaults(0.3); err != nil {
		t.Fatal(err)
	}
	if m.effectiveWeights() != nil {
		t.Fatal("layer whose columns can clamp stayed on the product path")
	}
	in := make([]int, nvec*rows)
	for i := range in {
		in[i] = 255
	}
	checkAgainstCompute(t, "clamped", m, in)
	// With every input at 255 a column total is 255·Σ levels; at least one
	// must pass the 16-bit clamp for the check to mean anything.
	clamps := false
	for c := 0; c < m.physCols; c++ {
		sum := 0
		for r := 0; r < rows; r++ {
			sum += int(s.Crossbar(r/s.cfg.B, 0).Level(r%s.cfg.B, c))
		}
		clamps = clamps || 255*sum > 1<<16-1
	}
	if !clamps {
		t.Fatal("no column total reaches the clamp; the check proves nothing")
	}
}

// TestEightBitInterfaceQuantises: at the Table II 8-bit interface the
// per-layer scale is non-zero, so the layer keeps the per-column quantiser
// and still matches per-wave Compute.
func TestEightBitInterfaceQuantises(t *testing.T) {
	for _, shape := range []struct{ d, rows int }{{8, 9}, {32, 288}} {
		name := fmt.Sprintf("%dx%d", shape.rows, shape.d)
		m := faultedLayer(t, params.DTCBits, shape.d, shape.rows, 0.01, 17)
		if m.ScaleShift == 0 || m.effectiveWeights() != nil {
			t.Fatalf("%s: 8-bit layer on the product path (shift %d)", name, m.ScaleShift)
		}
		checkAgainstCompute(t, name, m, randomBatch(stats.NewRNG(19), 7, shape.rows))
		if m.weff != nil {
			t.Fatalf("%s: 8-bit layer built an effective-weight matrix", name)
		}
	}
}
