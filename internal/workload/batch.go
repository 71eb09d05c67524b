package workload

import "fmt"

// Batched inference: when every mapped layer's noise configuration is
// deterministic, inputs can be regrouped into matrix–matrix ForwardBatch
// waves across IMAGES (layer-major traversal: all images through layer 0,
// then all through layer 1, ...) without changing a single psum — the
// deterministic crossbar kernel is bit-identical per wave regardless of
// batch composition. With randomness configured the shared RNG stream
// makes any reorder unsafe, so the batch entry points fall back to the
// per-image path; either way the results equal the unbatched path byte
// for byte.

// predictBlock bounds the scratch footprint of the image-batched paths:
// images are processed in blocks of this many.
const predictBlock = 64

// BatchSafe reports whether layer-major image batching is bit-identical
// for this mapped model: every layer's batched forward path must be
// deterministic (no shared-RNG draw order to preserve).
func (a *AnalogMLP) BatchSafe() bool {
	for _, m := range a.mapped {
		if !m.BatchDeterministic() {
			return false
		}
	}
	return true
}

// PredictBatch classifies xs, writing one class index per input to out.
// Results are byte-identical to calling Predict on each input in order:
// the layer-major blocked path is taken only when BatchSafe reports the
// regrouping cannot change any psum.
func (a *AnalogMLP) PredictBatch(xs [][]float64, out []int) error {
	if len(out) != len(xs) {
		return fmt.Errorf("workload: %d outputs for %d inputs", len(out), len(xs))
	}
	if !a.BatchSafe() {
		for i, x := range xs {
			p, err := a.Predict(x)
			if err != nil {
				return err
			}
			out[i] = p
		}
		return nil
	}
	for base := 0; base < len(xs); base += predictBlock {
		n := len(xs) - base
		if n > predictBlock {
			n = predictBlock
		}
		if err := a.predictBlockDet(xs[base:base+n], out[base:base+n]); err != nil {
			return err
		}
	}
	return nil
}

// predictBlockDet runs one block of images layer-major through the
// deterministic matrix–matrix path.
func (a *AnalogMLP) predictBlockDet(xs [][]float64, out []int) error {
	n := len(xs)
	rows := a.mapped[0].Rows
	if cap(a.codes) < n*rows {
		a.codes = make([]int, n*rows)
	}
	codes := a.codes[:n*rows]
	for v, x := range xs {
		if len(x) != rows {
			return fmt.Errorf("workload: input %d has %d features for %d mapped rows", v, len(x), rows)
		}
		for i, f := range x {
			codes[v*rows+i] = a.q.InQ.Quantize(f)
		}
	}
	for l, m := range a.mapped {
		if cap(a.psums) < n*m.D {
			a.psums = make([]int, n*m.D)
		}
		psums := a.psums[:n*m.D]
		if err := m.ForwardBatch(codes[:n*m.Rows], n, psums); err != nil {
			return err
		}
		if l == len(a.mapped)-1 {
			for v := 0; v < n; v++ {
				ps := psums[v*m.D : (v+1)*m.D]
				best, bi := ps[0], 0
				for i, p := range ps {
					if p > best {
						best, bi = p, i
					}
				}
				out[v] = bi
			}
			return nil
		}
		if cap(a.codes) < n*m.D {
			a.codes = make([]int, n*m.D)
		}
		codes = a.codes[:n*m.D]
		for i, p := range psums {
			codes[i] = requantCode(int64(p), a.q.Shifts[l])
		}
	}
	return nil
}

// AccuracyBatch evaluates the analog pipeline over a dataset through the
// image-batched path. The returned accuracy is identical to Accuracy's.
func (a *AnalogMLP) AccuracyBatch(d *Dataset) (float64, error) {
	preds := make([]int, d.Len())
	if err := a.PredictBatch(d.X, preds); err != nil {
		return 0, err
	}
	hit := 0
	for i, p := range preds {
		if p == d.Y[i] {
			hit++
		}
	}
	return hitRate(hit, d.Len()), nil
}

// BatchSafe reports whether cross-image batching is bit-identical for
// this mapped CNN: the conv bank and every head layer must be
// deterministic.
func (a *AnalogCNN) BatchSafe() bool {
	return a.convMap.BatchDeterministic() && a.head.BatchSafe()
}

// Programmed returns the programmed level of every cell the conv bank
// reads, as one string. It is a valid identity only when BatchSafe holds:
// then the whole pipeline is a pure function of the levels it reads, and
// the head's are fixed by the CNN and the options (it never takes
// faults), so two AnalogCNNs mapped from the same CNN under the same
// options with equal Programmed() classify every image the same way.
// Stuck-at faults outside the cells the conv bank reads leave it
// unchanged.
func (a *AnalogCNN) Programmed() string {
	return string(a.convMap.AppendLevels(nil))
}

// AccuracyBatch evaluates the analog pipeline over a dataset: each image's
// patches take one conv ForwardCodes pass (already a matrix–matrix pass),
// and blocks of images go through the head's layer-major batched path. The
// returned accuracy is identical to Accuracy's; when BatchSafe is false it
// falls back to the per-image path outright.
func (a *AnalogCNN) AccuracyBatch(d *ImageDataset) (float64, error) {
	if !a.BatchSafe() {
		return a.Accuracy(d)
	}
	preds := make([]int, d.Len())
	feats := make([][]float64, predictBlock)
	// One feature buffer serves every block; it is replaced, never
	// resized in place, so a block's earlier vectors stay intact.
	var buf []float64
	for base := 0; base < d.Len(); base += predictBlock {
		n := min(d.Len()-base, predictBlock)
		off := 0
		for i, img := range d.X[base : base+n] {
			dim := a.featLen(img)
			if len(buf) < off+dim {
				buf = make([]float64, max(predictBlock*dim, off+dim))
				off = 0
			}
			feats[i] = buf[off : off+dim : off+dim]
			off += dim
			if err := a.features(img, feats[i]); err != nil {
				return 0, err
			}
		}
		if err := a.head.PredictBatch(feats[:n], preds[base:base+n]); err != nil {
			return 0, err
		}
	}
	hit := 0
	for i, p := range preds {
		if p == d.Y[i] {
			hit++
		}
	}
	return hitRate(hit, d.Len()), nil
}
