package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fixed"
)

// QuantMLP is an MLP quantised onto TIMELY's datapath: signed fixed-point
// weights (WeightBits wide), unsigned 8-bit activations with per-layer
// calibrated scales, and integer requantisation between layers. It supports
// two execution backends over identical integer math: an exact integer
// reference and the functional TIMELY analog pipeline (package core).
type QuantMLP struct {
	// Weights[l][o][i] are signed weight codes.
	Weights [][][]int
	// InQ quantises raw features to 8-bit input codes.
	InQ fixed.Quantizer
	// Shifts[l] is the post-layer requantisation shift back to 8-bit codes.
	Shifts []int
	// Classes is the output width.
	Classes int
}

// Quantize converts a trained MLP to fixed point, calibrating activation
// ranges on the given dataset. weightBits is the signed weight width (8 for
// the PRIME-precision TIMELY).
func Quantize(m *MLP, calib *Dataset, weightBits int) (*QuantMLP, error) {
	if len(m.W) == 0 {
		return nil, ErrUntrained
	}
	if calib.Len() == 0 {
		return nil, fixed.ErrEmpty
	}
	// Input quantiser over the calibration features.
	var feats []float64
	for _, x := range calib.X {
		feats = append(feats, x...)
	}
	inQ, err := fixed.CalibrateUnsigned(8, feats)
	if err != nil {
		return nil, err
	}
	q := &QuantMLP{InQ: inQ, Classes: m.Sizes[len(m.Sizes)-1]}
	// Per-layer symmetric weight quantisers.
	lim := int(1)<<(weightBits-1) - 1
	for l := range m.W {
		var flat []float64
		for _, row := range m.W[l] {
			flat = append(flat, row...)
		}
		wq, err := fixed.CalibrateSymmetric(weightBits, flat)
		if err != nil {
			return nil, err
		}
		wl := make([][]int, len(m.W[l]))
		for o, row := range m.W[l] {
			wl[o] = make([]int, len(row))
			for i, v := range row {
				wl[o][i] = fixed.ClampInt(wq.Quantize(v)-wq.Zero, -lim-1, lim)
			}
		}
		q.Weights = append(q.Weights, wl)
	}
	// Calibrate requantisation shifts: run the integer forward pass over the
	// calibration set and size each shift so the layer's max psum lands in
	// 8 bits.
	q.Shifts = make([]int, len(q.Weights))
	maxPsum := make([]int64, len(q.Weights))
	for _, x := range calib.X {
		codes := q.quantizeInput(x)
		for l := range q.Weights {
			psums := intFC(codes, q.Weights[l])
			for _, p := range psums {
				if p > maxPsum[l] {
					maxPsum[l] = p
				}
			}
			if l < len(q.Weights)-1 {
				codes = requant(psums, q.Shifts[l]) // shift 0 during calib
			}
		}
	}
	for l, mp := range maxPsum {
		sh := 0
		for mp>>uint(sh) > 255 {
			sh++
		}
		q.Shifts[l] = sh
		// Recalibrate downstream maxima is unnecessary: shifts only shrink
		// activations, so the 8-bit bound stays safe (conservative).
	}
	return q, nil
}

func (q *QuantMLP) quantizeInput(x []float64) []int {
	codes := make([]int, len(x))
	for i, v := range x {
		codes[i] = q.InQ.Quantize(v)
	}
	return codes
}

func intFC(codes []int, w [][]int) []int64 {
	out := make([]int64, len(w))
	for o, row := range w {
		var s int64
		for i, c := range codes {
			s += int64(c) * int64(row[i])
		}
		out[o] = s
	}
	return out
}

// requantCode shifts one psum down and clamps it into a ReLU'd 8-bit code —
// the single source of truth for the requantisation both the integer
// reference and the analog pipeline apply between layers.
func requantCode(p int64, sh int) int {
	v := p >> uint(sh)
	if v < 0 {
		v = 0
	}
	if v > 255 {
		v = 255
	}
	return int(v)
}

// requant shifts psums down and clamps into ReLU'd 8-bit codes.
func requant(psums []int64, sh int) []int {
	out := make([]int, len(psums))
	for i, p := range psums {
		out[i] = requantCode(p, sh)
	}
	return out
}

// PredictInt classifies x through the exact integer reference.
func (q *QuantMLP) PredictInt(x []float64) int {
	codes := q.quantizeInput(x)
	for l := range q.Weights {
		psums := intFC(codes, q.Weights[l])
		if l == len(q.Weights)-1 {
			return argmax64(psums)
		}
		codes = requant(psums, q.Shifts[l])
	}
	return 0
}

// AccuracyInt evaluates the integer reference on a dataset.
func (q *QuantMLP) AccuracyInt(d *Dataset) float64 {
	hit := 0
	for i, x := range d.X {
		if q.PredictInt(x) == d.Y[i] {
			hit++
		}
	}
	return hitRate(hit, d.Len())
}

// AnalogMLP is a QuantMLP programmed onto functional TIMELY sub-chips (one
// per layer), ready for repeated inference.
type AnalogMLP struct {
	q      *QuantMLP
	mapped []*core.MappedLayer

	// codes and psums are per-instance scratch reused across Predict calls
	// (an AnalogMLP is driven by one goroutine at a time).
	codes []int
	psums []int
}

// MapAnalog programs every layer onto a fresh functional sub-chip with the
// given options (noise, interface resolution, ledger).
func (q *QuantMLP) MapAnalog(opt core.Options) (*AnalogMLP, error) {
	a := &AnalogMLP{q: q}
	for l, wl := range q.Weights {
		sc := core.NewSubChip(opt)
		m, err := sc.MapDense(wl)
		if err != nil {
			return nil, fmt.Errorf("workload: mapping layer %d: %w", l, err)
		}
		a.mapped = append(a.mapped, m)
	}
	return a, nil
}

// Predict classifies x through the analog pipeline. Layer traversal reuses
// the instance scratch, so steady-state inference allocates nothing.
func (a *AnalogMLP) Predict(x []float64) (int, error) {
	if cap(a.codes) < len(x) {
		a.codes = make([]int, len(x))
	}
	codes := a.codes[:len(x)]
	for i, v := range x {
		codes[i] = a.q.InQ.Quantize(v)
	}
	for l, m := range a.mapped {
		if cap(a.psums) < m.D {
			a.psums = make([]int, m.D)
		}
		psums := a.psums[:m.D]
		if err := m.ForwardBatch(codes, 1, psums); err != nil {
			return 0, err
		}
		if l == len(a.mapped)-1 {
			best, bi := psums[0], 0
			for i, v := range psums {
				if v > best {
					best, bi = v, i
				}
			}
			return bi, nil
		}
		// Requantise into the code scratch.
		if cap(a.codes) < len(psums) {
			a.codes = make([]int, len(psums))
		}
		codes = a.codes[:len(psums)]
		for i, p := range psums {
			codes[i] = requantCode(int64(p), a.q.Shifts[l])
		}
	}
	return 0, nil
}

// Accuracy evaluates the analog pipeline on a dataset.
func (a *AnalogMLP) Accuracy(d *Dataset) (float64, error) {
	hit := 0
	for i, x := range d.X {
		p, err := a.Predict(x)
		if err != nil {
			return 0, err
		}
		if p == d.Y[i] {
			hit++
		}
	}
	return hitRate(hit, d.Len()), nil
}

func argmax64(xs []int64) int {
	best, bi := xs[0], 0
	for i, v := range xs {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}
