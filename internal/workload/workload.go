// Package workload provides the training substrate for the paper's accuracy
// study (§VI-B): synthetic classification datasets, a pure-Go SGD-trained
// MLP, and post-training quantisation onto TIMELY's 8-bit datapath. The
// paper measures ≤0.1 % inference-accuracy loss under injected circuit
// noise; since ImageNet is not available offline, the same methodology runs
// on synthetic Gaussian-cluster data — the claim under test (accuracy delta
// between ideal and noisy analog execution of the same quantised network) is
// dataset-agnostic (see DESIGN.md "substitutions").
package workload

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// Dataset is a labelled set of real-valued feature vectors.
type Dataset struct {
	X       [][]float64
	Y       []int
	Dim     int
	Classes int
}

// Len returns the sample count.
func (d *Dataset) Len() int { return len(d.X) }

// SyntheticClusters draws n samples from `classes` Gaussian clusters with
// unit-box centres and the given intra-cluster spread. Features are shifted
// to be non-negative (post-ReLU-like), matching TIMELY's unsigned input
// encoding.
func SyntheticClusters(rng *stats.RNG, n, dim, classes int, spread float64) *Dataset {
	if n <= 0 || dim <= 0 || classes <= 1 {
		panic(fmt.Sprintf("workload: invalid dataset spec n=%d dim=%d classes=%d", n, dim, classes))
	}
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = rng.Float64()
		}
	}
	d := &Dataset{Dim: dim, Classes: classes}
	for i := 0; i < n; i++ {
		c := rng.Intn(classes)
		x := make([]float64, dim)
		for j := range x {
			v := centers[c][j] + rng.Gauss(0, spread)
			if v < 0 {
				v = 0
			}
			x[j] = v
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, c)
	}
	return d
}

// Split partitions the dataset into train/test at the given fraction.
func (d *Dataset) Split(trainFrac float64) (train, test *Dataset) {
	cut := int(float64(d.Len()) * trainFrac)
	train = &Dataset{X: d.X[:cut], Y: d.Y[:cut], Dim: d.Dim, Classes: d.Classes}
	test = &Dataset{X: d.X[cut:], Y: d.Y[cut:], Dim: d.Dim, Classes: d.Classes}
	return train, test
}

// MLP is a fully-connected ReLU network trained with SGD on softmax
// cross-entropy. Forward and SGD passes reuse per-instance scratch, so an
// MLP must be driven by one goroutine at a time.
type MLP struct {
	// Sizes holds layer widths, input first.
	Sizes []int
	// W[l][o][i] and B[l][o] are the trainable parameters.
	W [][][]float64
	B [][]float64

	// Scratch reused across forward/SGD passes: layer activations, the two
	// alternating gradient ladders, softmax probabilities and the
	// noise-perturbed input of TrainWithNoise.
	acts         [][]float64
	gradA, gradB []float64
	probs        []float64
	noisy        []float64
}

// NewMLP builds an MLP with He-style random initialisation.
func NewMLP(rng *stats.RNG, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic("workload: MLP needs at least input and output sizes")
	}
	m := &MLP{Sizes: sizes}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([][]float64, out)
		scale := math.Sqrt(2 / float64(in))
		for o := range w {
			w[o] = make([]float64, in)
			for i := range w[o] {
				w[o][i] = rng.Gauss(0, scale)
			}
		}
		m.W = append(m.W, w)
		m.B = append(m.B, make([]float64, out))
	}
	return m
}

// forward returns all layer activations (post-ReLU except the last). The
// returned slices are instance scratch, overwritten by the next pass. Output
// rows are computed four per pass over the input so each input value is
// loaded once per block; every row still accumulates from its bias in
// ascending input order, so the sums are bit-identical to a row-at-a-time
// loop. Every product is rounded on its own (float64(...)), so no GOARCH
// fuses it into a sum; step's updates are rounded the same way.
func (m *MLP) forward(x []float64) [][]float64 {
	if m.acts == nil {
		m.acts = make([][]float64, len(m.Sizes))
		for l := 1; l < len(m.Sizes); l++ {
			m.acts[l] = make([]float64, m.Sizes[l])
		}
	}
	m.acts[0] = x
	cur := x
	for l, w := range m.W {
		next, b := m.acts[l+1], m.B[l]
		hidden := l < len(m.W)-1
		o := 0
		for ; o+4 <= len(w); o += 4 {
			r0, r1, r2, r3 := w[o][:len(cur)], w[o+1][:len(cur)], w[o+2][:len(cur)], w[o+3][:len(cur)]
			s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
			for i, v := range cur {
				s0 += float64(r0[i] * v)
				s1 += float64(r1[i] * v)
				s2 += float64(r2[i] * v)
				s3 += float64(r3[i] * v)
			}
			next[o], next[o+1], next[o+2], next[o+3] = relu(s0, hidden), relu(s1, hidden), relu(s2, hidden), relu(s3, hidden)
		}
		for ; o < len(w); o++ {
			row := w[o][:len(cur)]
			s := b[o]
			for i, v := range cur {
				s += float64(row[i] * v)
			}
			next[o] = relu(s, hidden)
		}
		cur = next
	}
	return m.acts
}

// relu clamps a negative hidden pre-activation to zero when on. It tests
// s < 0 rather than calling the builtin max, which would also turn −0
// into +0.
func relu(s float64, on bool) float64 {
	if on && s < 0 {
		return 0
	}
	return s
}

// Predict returns the argmax class for x.
func (m *MLP) Predict(x []float64) int {
	acts := m.forward(x)
	return argmaxF(acts[len(acts)-1])
}

// Accuracy returns the fraction of correctly classified samples.
func (m *MLP) Accuracy(d *Dataset) float64 {
	hit := 0
	for i, x := range d.X {
		if m.Predict(x) == d.Y[i] {
			hit++
		}
	}
	return hitRate(hit, d.Len())
}

// hitRate is the fraction of n samples classified correctly. An empty
// dataset scores 0, not the NaN of 0/0, so every accuracy function reports
// the same number for it.
func hitRate(hit, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(hit) / float64(n)
}

// Train runs SGD for the given epochs and learning rate, returning the final
// average cross-entropy loss. Sample order reshuffles each epoch with rng.
func (m *MLP) Train(d *Dataset, rng *stats.RNG, epochs int, lr float64) float64 {
	if d.Len() == 0 {
		return 0
	}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	loss := 0.0
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		loss = 0
		for _, s := range idx {
			loss += m.step(d.X[s], d.Y[s], lr)
		}
		loss /= float64(d.Len())
	}
	return loss
}

// TrainWithNoise trains while scaling each input feature of every sample
// by an independent 1+N(0, actSigma) factor, the noise-aware training the
// paper adopts from [53],[54],[57] to absorb analog errors. Like Train, it
// returns 0 on an empty dataset.
func (m *MLP) TrainWithNoise(d *Dataset, rng *stats.RNG, epochs int, lr, actSigma float64) float64 {
	if actSigma == 0 || d.Len() == 0 {
		return m.Train(d, rng, epochs, lr)
	}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	loss := 0.0
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		loss = 0
		for _, s := range idx {
			if cap(m.noisy) < len(d.X[s]) {
				m.noisy = make([]float64, len(d.X[s]))
			}
			x := m.noisy[:len(d.X[s])]
			for j, v := range d.X[s] {
				x[j] = v * (1 + rng.Gauss(0, actSigma))
			}
			loss += m.step(x, d.Y[s], lr)
		}
		loss /= float64(d.Len())
	}
	return loss
}

// step performs one SGD update and returns the sample loss: a forward
// pass, softmax cross-entropy, and a backward pass that updates every
// weight and bias in place. Each hidden layer's input gradient accumulates
// over output rows in ascending order from the pre-update weights; rows
// are fused in pairs, and prev[i] + g0·a0 + g1·a1 is the same
// left-to-right fold as two single-row passes. The loss gradient with
// respect to the network input is never formed: nothing reads it.
func (m *MLP) step(x []float64, y int, lr float64) float64 {
	acts := m.forward(x)
	out := acts[len(acts)-1]
	probs := m.softmaxInto(out)
	loss := -math.Log(math.Max(probs[y], 1e-12))
	if m.gradA == nil {
		maxW := 0
		for _, s := range m.Sizes {
			if s > maxW {
				maxW = s
			}
		}
		m.gradA = make([]float64, maxW)
		m.gradB = make([]float64, maxW)
	}
	// Backprop: delta at output = probs - onehot. The delta/prev ladders
	// alternate between the two scratch buffers.
	delta, other := m.gradA[:len(out)], m.gradB
	copy(delta, probs)
	delta[y] -= 1
	for l := len(m.W) - 1; l >= 0; l-- {
		w, b, in := m.W[l], m.B[l], acts[l]
		if l == 0 {
			// Weights and biases only: the input gradient has no reader.
			// A row whose delta is zero (a dead ReLU unit) would subtract
			// ±0 (lr·0 times a finite input) from every weight and bias,
			// which leaves any value but −0 bit-unchanged — and parameters
			// are never −0: they start from 0 + Gauss or 0, and exact
			// cancellation rounds to +0 — so only live rows are updated,
			// two at a time.
			pend := -1
			for o, g := range delta[:len(w)] {
				if g == 0 {
					continue
				}
				if pend < 0 {
					pend = o
					continue
				}
				lg0, lg1 := float64(lr*delta[pend]), float64(lr*g)
				b[pend] -= lg0
				b[o] -= lg1
				r0, r1 := w[pend][:len(in)], w[o][:len(in)]
				for i, v := range in {
					r0[i] -= float64(lg0 * v)
					r1[i] -= float64(lg1 * v)
				}
				pend = -1
			}
			if pend >= 0 {
				lg := float64(lr * delta[pend])
				b[pend] -= lg
				row := w[pend][:len(in)]
				for i, v := range in {
					row[i] -= float64(lg * v)
				}
			}
			return loss
		}
		prev := other[:len(in)]
		for i := range prev {
			prev[i] = 0
		}
		o := 0
		for ; o+2 <= len(w); o += 2 {
			g0, g1 := delta[o], delta[o+1]
			lg0, lg1 := float64(lr*g0), float64(lr*g1)
			b[o] -= lg0
			b[o+1] -= lg1
			r0, r1 := w[o][:len(in)], w[o+1][:len(in)]
			for i, v := range in {
				a0, a1 := r0[i], r1[i]
				prev[i] = prev[i] + float64(g0*a0) + float64(g1*a1)
				r0[i] = a0 - float64(lg0*v)
				r1[i] = a1 - float64(lg1*v)
			}
		}
		for ; o < len(w); o++ {
			g := delta[o]
			lg := float64(lr * g)
			b[o] -= lg
			row := w[o][:len(in)]
			for i, v := range in {
				ri := row[i]
				prev[i] += float64(g * ri)
				row[i] = ri - float64(lg*v)
			}
		}
		// ReLU derivative of the hidden activation.
		for i, v := range in {
			if v <= 0 {
				prev[i] = 0
			}
		}
		delta, other = prev, delta[:cap(delta)]
	}
	return loss
}

// softmaxInto computes softmax(xs) into the instance probability scratch.
func (m *MLP) softmaxInto(xs []float64) []float64 {
	mx := xs[0]
	for _, v := range xs[1:] {
		if v > mx {
			mx = v
		}
	}
	if cap(m.probs) < len(xs) {
		m.probs = make([]float64, len(xs))
	}
	out := m.probs[:len(xs)]
	s := 0.0
	for i, v := range xs {
		out[i] = math.Exp(v - mx)
		s += out[i]
	}
	for i := range out {
		out[i] /= s
	}
	return out
}

func argmaxF(xs []float64) int {
	best, bi := math.Inf(-1), 0
	for i, v := range xs {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// ErrUntrained is returned when quantising a degenerate model.
var ErrUntrained = errors.New("workload: model has no layers")
