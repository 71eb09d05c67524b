package core

import (
	"testing"

	"repro/internal/analog"
	"repro/internal/params"
	"repro/internal/stats"
)

// randomDense builds a random signed weight matrix of the given shape.
func randomDense(rng *stats.RNG, d, rows, weightBits int) [][]int {
	lim := int(1) << (weightBits - 1)
	w := make([][]int, d)
	for o := range w {
		w[o] = make([]int, rows)
		for i := range w[o] {
			w[o][i] = rng.Intn(2*lim) - lim
		}
	}
	return w
}

// mapRandom programs the same random layer onto a fresh sub-chip.
func mapRandom(t *testing.T, opt Options, seed uint64, d, rows int) *MappedLayer {
	t.Helper()
	cfg := params.DefaultTimely(8)
	w := randomDense(stats.NewRNG(seed), d, rows, cfg.WeightBits)
	m, err := NewSubChip(opt).MapDense(w)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randomBatch(rng *stats.RNG, nvec, rows int) []int {
	in := make([]int, nvec*rows)
	for i := range in {
		in[i] = rng.Intn(256)
	}
	return in
}

// TestForwardBatchMatchesComputeIdeal: the deterministic batched fast path
// must be bit-exact against per-wave Compute on the same mapped layer.
func TestForwardBatchMatchesComputeIdeal(t *testing.T) {
	for _, shape := range []struct{ d, rows int }{
		{4, 9},    // single crossbar
		{8, 300},  // two grid rows (vertical I-adder stack)
		{80, 40},  // two grid columns (X-subBuf propagation)
		{70, 270}, // both
	} {
		m := mapRandom(t, IdealOptions(nil), 7, shape.d, shape.rows)
		const nvec = 9
		in := randomBatch(stats.NewRNG(11), nvec, shape.rows)
		got := make([]int, nvec*shape.d)
		if err := m.ForwardBatch(in, nvec, got); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < nvec; v++ {
			want, err := m.Compute(in[v*shape.rows : (v+1)*shape.rows])
			if err != nil {
				t.Fatal(err)
			}
			for d, w := range want {
				if got[v*shape.d+d] != w {
					t.Fatalf("shape %+v wave %d psum[%d]: batch %d != compute %d",
						shape, v, d, got[v*shape.d+d], w)
				}
			}
		}
	}
}

// TestForwardBatchMatchesComputeNoisy: with randomness configured the
// batched path must execute waves strictly in order, consuming the RNG
// identically to successive Compute calls — verified by running the same
// layer with identically seeded noise through both paths.
func TestForwardBatchMatchesComputeNoisy(t *testing.T) {
	const d, rows, nvec = 6, 280, 7
	opts := func() Options {
		return Options{
			Noise:         analog.DefaultNoise(42),
			InterfaceBits: 24,
			InputHops:     3,
		}
	}
	mBatch := mapRandom(t, opts(), 13, d, rows)
	mWave := mapRandom(t, opts(), 13, d, rows)
	in := randomBatch(stats.NewRNG(17), nvec, rows)

	got := make([]int, nvec*d)
	if err := mBatch.ForwardBatch(in, nvec, got); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < nvec; v++ {
		want, err := mWave.Compute(in[v*rows : (v+1)*rows])
		if err != nil {
			t.Fatal(err)
		}
		for di, w := range want {
			if got[v*d+di] != w {
				t.Fatalf("wave %d psum[%d]: batch %d != compute %d", v, di, got[v*d+di], w)
			}
		}
	}
}

// TestForwardBatchDeterministicZeroSigma: a non-nil noise with all sigmas
// zero must take the deterministic path and still match per-wave execution.
func TestForwardBatchDeterministicZeroSigma(t *testing.T) {
	const d, rows, nvec = 5, 30, 70 // nvec spans two batch blocks
	opt := Options{
		Noise:         &analog.Noise{RNG: stats.NewRNG(3)},
		InterfaceBits: 24,
	}
	m := mapRandom(t, opt, 23, d, rows)
	in := randomBatch(stats.NewRNG(29), nvec, rows)
	got := make([]int, nvec*d)
	if err := m.ForwardBatch(in, nvec, got); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < nvec; v++ {
		want, err := m.Compute(in[v*rows : (v+1)*rows])
		if err != nil {
			t.Fatal(err)
		}
		for di, w := range want {
			if got[v*d+di] != w {
				t.Fatalf("wave %d psum[%d]: batch %d != compute %d", v, di, got[v*d+di], w)
			}
		}
	}
}

// TestForwardBatchErrors covers the argument validation and out-of-range
// DTC codes on both paths.
func TestForwardBatchErrors(t *testing.T) {
	m := mapRandom(t, IdealOptions(nil), 5, 3, 8)
	if err := m.ForwardBatch(make([]int, 8), 2, make([]int, 6)); err == nil {
		t.Fatal("short input batch accepted")
	}
	if err := m.ForwardBatch(make([]int, 16), 2, make([]int, 3)); err == nil {
		t.Fatal("short output batch accepted")
	}
	bad := make([]int, 8)
	bad[3] = 999
	if err := m.ForwardBatch(bad, 1, make([]int, 3)); err == nil {
		t.Fatal("out-of-range DTC code accepted on deterministic path")
	}
	mN := mapRandom(t, Options{Noise: analog.DefaultNoise(1), InterfaceBits: 24}, 5, 3, 8)
	if err := mN.ForwardBatch(bad, 1, make([]int, 3)); err == nil {
		t.Fatal("out-of-range DTC code accepted on per-wave path")
	}
}

// TestLazyCrossbarMaterialisation: unused grid slots must stay
// unmaterialised after mapping and computing, and fault injection must
// produce identical maps and results whether crossbars are materialised
// before or after the injection.
func TestLazyCrossbarMaterialisation(t *testing.T) {
	s := NewSubChip(IdealOptions(nil))
	if _, err := s.MapDense(randomDense(stats.NewRNG(1), 4, 9, s.cfg.WeightBits)); err != nil {
		t.Fatal(err)
	}
	materialised := 0
	for _, x := range s.grid {
		if x != nil {
			materialised++
		}
	}
	if materialised != 1 {
		t.Fatalf("mapping a 9x4 layer materialised %d crossbars, want 1", materialised)
	}

	// Deferred injection must replay to the same faults as eager injection.
	mk := func(eager bool) (*SubChip, int) {
		sc := NewSubChip(Options{Noise: &analog.Noise{RNG: stats.NewRNG(77)}, InterfaceBits: 24})
		if eager {
			for i := range sc.grid {
				sc.xbar(i)
			}
		}
		faults, err := sc.InjectFaults(0.02)
		if err != nil {
			t.Fatal(err)
		}
		return sc, faults
	}
	eagerSC, eagerFaults := mk(true)
	lazySC, lazyFaults := mk(false)
	if eagerFaults != lazyFaults {
		t.Fatalf("fault totals differ: eager %d, lazy %d", eagerFaults, lazyFaults)
	}
	for gr := 0; gr < eagerSC.cfg.GridRows; gr++ {
		for gc := 0; gc < eagerSC.cfg.GridCols; gc++ {
			xe, xl := eagerSC.Crossbar(gr, gc), lazySC.Crossbar(gr, gc)
			for r := 0; r < xe.B; r++ {
				for c := 0; c < xe.B; c++ {
					if xe.IsFaulty(r, c) != xl.IsFaulty(r, c) || xe.Level(r, c) != xl.Level(r, c) {
						t.Fatalf("crossbar (%d,%d) cell (%d,%d) differs between eager and lazy injection",
							gr, gc, r, c)
					}
				}
			}
		}
	}
}

// TestForwardBatchNonIntegralCrossbars: device variation or IR drop makes
// conductances non-integral, so BatchDeterministic must refuse the integer
// path even though the noise draws nothing, and ForwardBatch must still
// equal per-wave Compute. Stuck-at faults only pin levels: a faulted
// sub-chip stays on the integer path and must agree just the same.
func TestForwardBatchNonIntegralCrossbars(t *testing.T) {
	const d, rows, nvec = 5, 300, 9 // two grid rows
	for _, tc := range []struct {
		name  string
		setup func(*SubChip)
		det   bool
	}{
		{"variation", func(s *SubChip) { s.ApplyDeviceVariation(0.05) }, false},
		{"ir-drop", func(s *SubChip) { s.ApplyIRDrop(0.3) }, false},
		{"faults", func(s *SubChip) {
			if _, err := s.InjectFaults(0.05); err != nil {
				t.Fatal(err)
			}
		}, true},
	} {
		s := NewSubChip(Options{Noise: &analog.Noise{RNG: stats.NewRNG(31)}, InterfaceBits: 24})
		tc.setup(s)
		m, err := s.MapDense(randomDense(stats.NewRNG(37), d, rows, s.cfg.WeightBits))
		if err != nil {
			t.Fatal(err)
		}
		if got := m.BatchDeterministic(); got != tc.det {
			t.Fatalf("%s: BatchDeterministic = %v, want %v", tc.name, got, tc.det)
		}
		in := randomBatch(stats.NewRNG(41), nvec, rows)
		got := make([]int, nvec*d)
		if err := m.ForwardBatch(in, nvec, got); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < nvec; v++ {
			want, err := m.Compute(in[v*rows : (v+1)*rows])
			if err != nil {
				t.Fatal(err)
			}
			for di, w := range want {
				if got[v*d+di] != w {
					t.Fatalf("%s wave %d psum[%d]: batch %d != compute %d", tc.name, v, di, got[v*d+di], w)
				}
			}
		}
	}
}

// TestQuantiserExhaustive proves the integer quantiser of the deterministic
// path equal to the float charging + TDC expression it replaces: for the
// 8-bit and 24-bit interfaces and every ScaleShift MapDense can choose, every
// integer column total the layer can produce (0 … 255·maxColSum) must map to
// the code TDC.Convert(ChargingUnit.Output(total)) yields.
func TestQuantiserExhaustive(t *testing.T) {
	cfg := params.DefaultTimely(8)
	maxSum := cfg.RowCapacity() * (1<<cfg.CellBits - 1)
	for _, ifBits := range []int{8, 24} {
		s := NewSubChip(Options{InterfaceBits: ifBits})
		// The largest maxColSum that still selects each shift bounds the
		// totals a layer at that shift can produce.
		top := map[int]int{}
		for sum := 1; sum <= maxSum; sum++ {
			top[scaleShift(sum, ifBits)] = sum
		}
		for shift, colSum := range top {
			m := &MappedLayer{sc: s, ScaleShift: shift}
			q, cu := m.quantiser(), m.chargingUnit()
			for total := int64(0); total <= int64(255*colSum); total++ {
				want := s.tdc.Convert(cu.Output(float64(total), nil), nil)
				if got := q.code(total); got != want {
					t.Fatalf("ifBits %d shift %d total %d: integer code %d, float code %d",
						ifBits, shift, total, got, want)
				}
			}
		}
		if ifBits == 24 && len(top) != 1 {
			t.Fatalf("24-bit interface selects shifts %v, want only 0", top)
		}
	}
}
