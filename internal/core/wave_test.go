package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/analog"
	"repro/internal/energy"
	"repro/internal/params"
	"repro/internal/stats"
)

// refCompute is the draw-per-block reference for computeInto: every block
// use draws its own deviate with one RNG.Gauss call at the moment the block
// runs, every column is read on its own, and the ledger is counted per
// column — the executor that bulk drawing replaced.
func refCompute(m *MappedLayer, inputs []int) ([]int, error) {
	s := m.sc
	cfg := s.cfg
	n := s.noise
	gauss := func(sigma float64) float64 {
		if n == nil || n.RNG == nil || sigma == 0 {
			return 0
		}
		return n.RNG.Gauss(0, sigma)
	}
	rows := m.Rows
	times := make([][]float64, m.gridColsUsed)
	times[0] = make([]float64, rows)
	for i, code := range inputs {
		t, err := s.dtc.Convert(code, gauss(n.DTCSigma))
		if err != nil {
			return nil, err
		}
		for h := 0; h < s.inputHops; h++ {
			t = s.xbuf.Propagate(t, gauss(n.XSubBufSigma))
		}
		times[0][i] = t
	}
	if s.inputHops > 0 {
		s.add(energy.XSubBufOp, energy.ClassInput, float64(s.inputHops*rows))
	}
	for gc := 1; gc < m.gridColsUsed; gc++ {
		times[gc] = make([]float64, rows)
		for i, t := range times[gc-1] {
			times[gc][i] = s.xbuf.Propagate(t, gauss(n.XSubBufSigma))
		}
		s.add(energy.XSubBufOp, energy.ClassInput, float64(rows))
	}
	s.add(energy.CrossbarOp, energy.ClassCompute, float64(m.gridRowsUsed*m.gridColsUsed))
	scaled := make([][]float64, m.gridColsUsed)
	for gc, ts := range times {
		scaled[gc] = make([]float64, rows)
		for i, t := range ts {
			scaled[gc][i] = t / params.TDel
		}
	}
	cu := m.chargingUnit()
	psums := make([]int, m.D)
	for d := range psums {
		acc := 0
		for arm := 0; arm < armsPerWeight; arm++ {
			armDot := 0
			for nib := 0; nib < m.colsPerArm; nib++ {
				gcol := m.globalCol(d, arm, nib)
				contribs := make([]float64, m.gridRowsUsed)
				for gr := range contribs {
					lo := gr * cfg.B
					hi := min(lo+cfg.B, rows)
					var dot [1]float64
					s.Crossbar(gr, gcol/cfg.B).DotColumns(scaled[gcol/cfg.B][lo:hi], gcol%cfg.B, 1, dot[:])
					if gr < m.gridRowsUsed-1 {
						dot[0] = s.pbuf.Mirror(dot[0], gauss(n.PSubBufRelSigma))
						s.add(energy.PSubBufOp, energy.ClassPsum, 1)
					}
					contribs[gr] = dot[0]
				}
				total := analog.IAdder{}.Sum(contribs...)
				s.add(energy.IAdderOp, energy.ClassPsum, 1)
				out := cu.Output(total, gauss(n.ComparatorSigma))
				code := s.tdc.Convert(out, gauss(n.TDCSigma))
				s.add(energy.ChargingOp, energy.ClassPsum, 1)
				s.add(energy.TDCConv, energy.ClassPsum, 1)
				armDot = armDot<<uint(cfg.CellBits) + code
			}
			if arm == 0 {
				acc += armDot
			} else {
				acc -= armDot
			}
		}
		psums[d] = acc << uint(m.ScaleShift)
		s.add(energy.ShiftAddOp, energy.ClassDigital, float64(m.physColsPerWeight()))
	}
	return psums, nil
}

// noisyPair maps the same random layer twice, each on a sub-chip with its
// own ledger and an identically seeded trial RNG, every sigma non-zero and
// both converters bowed by INL.
func noisyPair(t *testing.T, ifBits, hops, d, rows int) (bulk, ref *MappedLayer, lb, lr *energy.Ledger) {
	t.Helper()
	mk := func() (*MappedLayer, *energy.Ledger) {
		led := energy.NewLedger(nil)
		opt := Options{
			Noise: &analog.Noise{
				XSubBufSigma:    7,
				PSubBufRelSigma: 0.01,
				ComparatorSigma: 9,
				TDCSigma:        4,
				DTCSigma:        3,
				RNG:             stats.NewTrialRNG(31, 2),
			},
			Ledger:        led,
			InterfaceBits: ifBits,
			InputHops:     hops,
		}
		m := mapRandom(t, opt, 13, d, rows)
		m.sc.dtc.INL = 0.4
		m.sc.tdc.INL = 0.3
		return m, led
	}
	bulk, lb = mk()
	ref, lr = mk()
	return bulk, ref, lb, lr
}

// TestComputeMatchesDrawPerBlock: the bulk-drawn wave executor yields the
// psums, the ledger totals and the RNG position of the draw-per-block
// reference, with all five sigmas set, an input-hop cascade, INL on both
// converters, a layer spanning two grid rows and two grid columns, at the
// 8- and 24-bit interfaces, over several successive waves.
func TestComputeMatchesDrawPerBlock(t *testing.T) {
	const d, rows, waves = 70, 270, 4
	for _, ifBits := range []int{8, 24} {
		bulk, ref, lb, lr := noisyPair(t, ifBits, 3, d, rows)
		if bulk.gridRowsUsed < 2 || bulk.gridColsUsed < 2 {
			t.Fatalf("layer spans %d×%d grid slots; want at least 2×2", bulk.gridRowsUsed, bulk.gridColsUsed)
		}
		in := randomBatch(stats.NewRNG(17), waves, rows)
		for v := 0; v < waves; v++ {
			wave := in[v*rows : (v+1)*rows]
			got, err := bulk.Compute(wave)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refCompute(ref, wave)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("if=%d wave %d psum[%d]: bulk %d, reference %d", ifBits, v, i, got[i], want[i])
				}
			}
		}
		for _, c := range energy.Components() {
			for _, cl := range energy.Classes() {
				if g, w := lb.CountClass(c, cl), lr.CountClass(c, cl); g != w {
					t.Fatalf("if=%d ledger %v/%v: bulk %v, reference %v", ifBits, c, cl, g, w)
				}
			}
		}
		if g, w := bulk.sc.noise.RNG.Uint64(), ref.sc.noise.RNG.Uint64(); g != w {
			t.Fatalf("if=%d: the next draw after %d waves differs (%#x vs %#x)", ifBits, waves, g, w)
		}
	}
}

// TestOutOfRangeCodeDrawsNothing: a wave with an input that is not a DTC
// code fails with the DTC's range error before any deviate is drawn or any
// operation is counted, on Compute and on ForwardBatch alike.
func TestOutOfRangeCodeDrawsNothing(t *testing.T) {
	const d, rows = 6, 40
	m, _, led, _ := noisyPair(t, 8, 2, d, rows)
	rng := m.sc.noise.RNG
	fresh := rng.Clone()
	for _, bad := range []int{256, -1} {
		in := randomBatch(stats.NewRNG(5), 2, rows)
		in[rows+7] = bad
		want := fmt.Sprintf("analog: DTC code %d out of [0,256)", bad)
		if _, err := m.Compute(in[rows:]); err == nil || err.Error() != want {
			t.Fatalf("Compute error = %v; want %q", err, want)
		}
		if err := m.ForwardBatch(in, 2, make([]int, 2*d)); err == nil || err.Error() != want {
			t.Fatalf("ForwardBatch error = %v; want %q", err, want)
		}
	}
	if g, w := rng.Uint64(), fresh.Uint64(); g != w {
		t.Fatal("a rejected wave advanced the noise stream")
	}
	if led.Total() != 0 {
		t.Fatalf("a rejected wave counted %v fJ", led.Total())
	}
}

// TestErrorTermsZeroSigmaDrawsNothing: a zero sigma yields a +0 term and
// consumes no deviate, and a −0 deviate still gives +0.
func TestErrorTermsZeroSigmaDrawsNothing(t *testing.T) {
	e := errTerms{z: []float64{math.Copysign(0, -1), 1.5}}
	if v := e.next(0); v != 0 || math.Signbit(v) || e.i != 0 {
		t.Fatalf("zero sigma: term %v after %d draws; want +0 after none", v, e.i)
	}
	if v := e.next(3); v != 0 || math.Signbit(v) {
		t.Fatalf("-0 deviate: term %v; want +0", v)
	}
	if v := e.next(2); v != 3 || e.i != 2 {
		t.Fatalf("term %v after %d draws; want 3 after 2", v, e.i)
	}
}
