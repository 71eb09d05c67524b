package workload

import (
	"fmt"

	"repro/internal/core"
)

// Batched inference: when every mapped layer's noise configuration is
// deterministic, inputs can be regrouped into matrix–matrix ForwardBatch
// waves across IMAGES (layer-major traversal: all images through layer 0,
// then all through layer 1, ...) without changing a single psum — the
// deterministic crossbar kernel is bit-identical per wave regardless of
// batch composition. With randomness configured the shared RNG stream
// makes any reorder unsafe, so the batch entry points fall back to the
// per-image path; either way the results equal a Predict loop byte for
// byte.

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
				out[v] = argmax(psums[v*m.D : (v+1)*m.D])
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

// Accuracy evaluates the analog pipeline over a dataset through
// PredictBatch: layer-major blocks when BatchSafe, image by image
// otherwise, so it scores exactly what Predict classifies.
func (a *AnalogMLP) Accuracy(d *Dataset) (float64, error) {
	preds := make([]int, d.Len())
	if err := a.PredictBatch(d.X, preds); err != nil {
		return 0, err
	}
	return score(preds, d.Y), nil
}

// LockstepAccuracy scores every model of as on d, in as order, running
// them in lockstep image by image. The models must be distinct, mapped
// from one QuantMLP, with noise that draws from one RNG and, layer by
// layer, the same number of deviates a wave (options that differ only in
// the size of a non-zero sigma, say). Each score is then the model's
// Accuracy on its own fresh copy of that stream: a noisy model's Accuracy
// runs Predict image by image, and a deterministic one draws nothing
// either way.
func LockstepAccuracy(as []*AnalogMLP, d *Dataset) ([]float64, error) {
	if len(as) == 0 {
		return nil, nil
	}
	for _, a := range as[1:] {
		if a.q != as[0].q {
			return nil, fmt.Errorf("workload: lockstep models mapped from different QuantMLPs")
		}
	}
	g := newLockstep(as)
	preds := make([][]int, len(as))
	for k := range preds {
		preds[k] = make([]int, d.Len())
	}
	out := make([]int, len(as))
	for i, x := range d.X {
		if err := g.predict(x, out); err != nil {
			return nil, err
		}
		for k, p := range out {
			preds[k][i] = p
		}
	}
	accs := make([]float64, len(as))
	for k, p := range preds {
		accs[k] = score(p, d.Y)
	}
	return accs, nil
}

// lockstep is the one per-image executor of AnalogMLPs: it runs a group of
// models mapped from one QuantMLP through each image together, every
// layer's wave of every model through one core.ComputeLockstep, which
// draws the wave's deviates once for all of them. Predict is a lockstep of
// one model. Each model's scratch holds its codes and psums.
type lockstep struct {
	as     []*AnalogMLP
	layers []*core.MappedLayer
	inputs [][]int
	psums  [][]int
}

func newLockstep(as []*AnalogMLP) *lockstep {
	return &lockstep{
		as:     as,
		layers: make([]*core.MappedLayer, len(as)),
		inputs: make([][]int, len(as)),
		psums:  make([][]int, len(as)),
	}
}

// predict classifies x on every model of the group, writing model k's
// class to out[k]: the input codes are quantised once, and each layer's
// psums are requantised into the next layer's codes, model by model.
func (g *lockstep) predict(x []float64, out []int) error {
	lead := g.as[0]
	q := lead.q
	if cap(lead.codes) < len(x) {
		lead.codes = make([]int, len(x))
	}
	in := lead.codes[:len(x)]
	for i, v := range x {
		in[i] = q.InQ.Quantize(v)
	}
	for k := range g.inputs {
		g.inputs[k] = in
	}
	for l := range lead.mapped {
		for k, a := range g.as {
			m := a.mapped[l]
			if cap(a.psums) < m.D {
				a.psums = make([]int, m.D)
			}
			g.layers[k], g.psums[k] = m, a.psums[:m.D]
		}
		if err := core.ComputeLockstep(g.layers, g.inputs, g.psums); err != nil {
			return err
		}
		for k, ps := range g.psums {
			if l == len(lead.mapped)-1 {
				out[k] = argmax(ps)
				continue
			}
			// Requantise into the model's code scratch.
			a := g.as[k]
			if cap(a.codes) < len(ps) {
				a.codes = make([]int, len(ps))
			}
			next := a.codes[:len(ps)]
			for i, p := range ps {
				next[i] = requantCode(int64(p), q.Shifts[l])
			}
			g.inputs[k] = next
		}
	}
	return nil
}

// score is the fraction of predictions that match their labels.
func score(preds, labels []int) float64 {
	hit := 0
	for i, p := range preds {
		if p == labels[i] {
			hit++
		}
	}
	return hitRate(hit, len(preds))
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

// Accuracy evaluates the analog pipeline over a dataset, scoring exactly
// what Predict classifies. patches is nil or d's patch codes under the
// receiver's CNN (CNN.PatchCodes), which then stand in for each image's
// im2col. When BatchSafe, each image's patches take one conv ForwardCodes
// pass (already a matrix–matrix pass) and blocks of images go through the
// head's layer-major batched path; otherwise every image runs through
// Predict in order.
func (a *AnalogCNN) Accuracy(d *ImageDataset, patches [][]uint8) (float64, error) {
	if patches != nil && len(patches) != d.Len() {
		return 0, fmt.Errorf("workload: %d patch sets for %d images", len(patches), d.Len())
	}
	patch := func(i int) []uint8 {
		if patches == nil {
			return nil
		}
		return patches[i]
	}
	preds := make([]int, d.Len())
	if !a.BatchSafe() {
		for i, img := range d.X {
			p, err := a.predict(img, patch(i))
			if err != nil {
				return 0, err
			}
			preds[i] = p
		}
		return score(preds, d.Y), nil
	}
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
			if err := a.features(img, patch(base+i), feats[i]); err != nil {
				return 0, err
			}
		}
		if err := a.head.PredictBatch(feats[:n], preds[base:base+n]); err != nil {
			return 0, err
		}
	}
	return score(preds, d.Y), nil
}
