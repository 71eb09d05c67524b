package core

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/tensor"
)

// Layer executors: run whole conv/FC layers through the functional sub-chip
// with O2IR access accounting (§IV-D). Input-side costs follow the
// only-once-input-read schedule: every input is read from the L1 buffer and
// DTC-converted exactly once; horizontal filter slides reach their reused
// inputs through X-subBuf shifts (principle 3), counted per slide. The
// im2col patch batch flows through ForwardBatch, which re-derives the
// per-wave time vectors numerically — identical to holding them in
// X-subBufs in the noise-free/DTC-noise-free case the accuracy study uses
// (DTC jitter defaults to zero; X-subBuf hop noise is injected per wave).

// ConvResult bundles a functional conv/FC execution's outputs.
type ConvResult struct {
	// Out holds the raw psums (dot units, before requantisation).
	Out *tensor.Int
	// Mapped is the programmed layer (scale information for requantising).
	Mapped *MappedLayer
}

// RunConv executes one convolution on a fresh sub-chip built from opt.
// Input codes must be within the 8-bit DTC range; weights within the
// configured weight width. applyReLU folds the ReLU unit in (and counts it).
func RunConv(opt Options, in *tensor.Int, w *tensor.Filter, stride, pad int, applyReLU bool) (*ConvResult, error) {
	if in.Shape.C != w.C {
		return nil, fmt.Errorf("core: input channels %d != filter channels %d", in.Shape.C, w.C)
	}
	s := NewSubChip(opt)
	m, err := s.MapDense(FlattenFilter(w))
	if err != nil {
		return nil, err
	}

	// O2IR input-side accounting: one L1 read + one DTC conversion per input.
	nIn := float64(in.Shape.Size())
	s.add(energy.L1Read, energy.ClassInput, nIn)
	s.add(energy.DTCConv, energy.ClassInput, nIn)
	// Principle 3: each input serves G/S horizontal positions, arriving via
	// an X-subBuf shift for all but the first.
	if shifts := w.G/stride - 1; shifts > 0 {
		s.add(energy.XSubBufOp, energy.ClassInput, nIn*float64(shifts))
	}

	rows, e, f := tensor.Im2ColDims(in, w.Z, w.G, stride, pad)
	inputs := grow(&s.ar.inputs, rows*e*f)
	tensor.Im2ColIntoInts(in, w.Z, w.G, stride, pad, inputs)
	psums := grow(&s.ar.psums, e*f*w.D)
	if err := m.ForwardBatch(inputs, e*f, psums); err != nil {
		return nil, err
	}
	out := tensor.NewInt(w.D, e, f)
	for p := 0; p < e*f; p++ {
		for d := 0; d < w.D; d++ {
			v := psums[p*w.D+d]
			if applyReLU && v < 0 {
				v = 0
			}
			out.Data[d*e*f+p] = int32(v)
		}
	}
	s.add(energy.L1Write, energy.ClassOutput, float64(out.Shape.Size()))
	if applyReLU {
		s.add(energy.ReLUOp, energy.ClassDigital, float64(out.Shape.Size()))
	}
	return &ConvResult{Out: out, Mapped: m}, nil
}

// RunFC executes one fully-connected layer (weights[d][k] over the flattened
// input) on a fresh sub-chip.
func RunFC(opt Options, in *tensor.Int, weights [][]int, applyReLU bool) ([]int, *MappedLayer, error) {
	n := in.Shape.Size()
	for d, row := range weights {
		if len(row) != n {
			return nil, nil, fmt.Errorf("core: FC row %d has %d weights, want %d", d, len(row), n)
		}
	}
	s := NewSubChip(opt)
	m, err := s.MapDense(weights)
	if err != nil {
		return nil, nil, err
	}
	nIn := float64(n)
	s.add(energy.L1Read, energy.ClassInput, nIn)
	s.add(energy.DTCConv, energy.ClassInput, nIn)
	inputs := make([]int, n)
	for i, v := range in.Data {
		inputs[i] = int(v)
	}
	psums, err := m.Compute(inputs)
	if err != nil {
		return nil, nil, err
	}
	if applyReLU {
		for i, v := range psums {
			if v < 0 {
				psums[i] = 0
			}
		}
		s.add(energy.ReLUOp, energy.ClassDigital, float64(len(psums)))
	}
	s.add(energy.L1Write, energy.ClassOutput, float64(len(psums)))
	return psums, m, nil
}

// FlattenFilter lays filter weights out in im2col row order — row index
// (c·Z + i)·G + j for output channel d — the layout MapDense expects for
// convolution weights.
func FlattenFilter(w *tensor.Filter) [][]int {
	rows := w.C * w.Z * w.G
	out := make([][]int, w.D)
	for d := 0; d < w.D; d++ {
		out[d] = make([]int, rows)
		for c := 0; c < w.C; c++ {
			for i := 0; i < w.Z; i++ {
				for j := 0; j < w.G; j++ {
					out[d][(c*w.Z+i)*w.G+j] = int(w.At(d, c, i, j))
				}
			}
		}
	}
	return out
}

// IdealOptions returns an Options preset for bit-exact verification: no
// noise, wide (24-bit) psum interfaces, optional ledger.
func IdealOptions(ledger *energy.Ledger) Options {
	return Options{Ledger: ledger, InterfaceBits: 24}
}
