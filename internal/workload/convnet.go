package workload

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// ConvNet is a small convolutional network trained end to end in float64
// with pure-Go backpropagation: one conv layer (ReLU) → max pool → MLP
// head. After training it quantises into the integer CNN form of cnn.go
// (with a short head fine-tune on the quantised features), from which the
// functional analog pipeline runs it.
type ConvNet struct {
	// Conv filter bank dimensions and parameters.
	D, C, Z, G, S, Pad int
	// W[d][c][i][j] flattened: ((d·C+c)·Z+i)·G+j.
	W []float64
	// B[d] is the conv bias.
	B []float64
	// PoolK/PoolS is the max-pool window.
	PoolK, PoolS int
	// Head is the float classifier over pooled features.
	Head *MLP
	// input spatial dims (fixed at construction).
	inH, inW int
	// derived conv/pool output dims.
	convH, convW, poolH, poolW int
}

// NewConvNet builds a conv(3×3,d) → pool(2) → MLP(hidden) → classes network
// for single-channel size×size inputs.
func NewConvNet(rng *stats.RNG, size, d, hidden, classes int) *ConvNet {
	n := &ConvNet{
		D: d, C: 1, Z: 3, G: 3, S: 1, Pad: 1,
		PoolK: 2, PoolS: 2,
		inH: size, inW: size,
	}
	n.convH = (size+2*n.Pad-n.Z)/n.S + 1
	n.convW = (size+2*n.Pad-n.G)/n.S + 1
	n.poolH = (n.convH-n.PoolK)/n.PoolS + 1
	n.poolW = (n.convW-n.PoolK)/n.PoolS + 1
	n.W = make([]float64, d*n.C*n.Z*n.G)
	scale := math.Sqrt(2 / float64(n.C*n.Z*n.G))
	for i := range n.W {
		n.W[i] = rng.Gauss(0, scale)
	}
	n.B = make([]float64, d)
	n.Head = NewMLP(rng, d*n.poolH*n.poolW, hidden, classes)
	return n
}

// normalize converts 8-bit pixel codes into [0,1] floats.
func normalize(img *tensor.Int) []float64 {
	out := make([]float64, len(img.Data))
	for i, v := range img.Data {
		out[i] = float64(v) / 255
	}
	return out
}

// convForward computes the conv activations (pre-ReLU) for a normalised
// image.
func (n *ConvNet) convForward(x []float64) []float64 {
	out := make([]float64, n.D*n.convH*n.convW)
	for d := 0; d < n.D; d++ {
		for y := 0; y < n.convH; y++ {
			for xo := 0; xo < n.convW; xo++ {
				acc := n.B[d]
				for i := 0; i < n.Z; i++ {
					hy := y*n.S + i - n.Pad
					if hy < 0 || hy >= n.inH {
						continue
					}
					for j := 0; j < n.G; j++ {
						wx := xo*n.S + j - n.Pad
						if wx < 0 || wx >= n.inW {
							continue
						}
						acc += x[hy*n.inW+wx] * n.W[(d*n.Z+i)*n.G+j]
					}
				}
				out[(d*n.convH+y)*n.convW+xo] = acc
			}
		}
	}
	return out
}

// poolForward max-pools ReLU'd conv activations, recording argmax indices
// for backprop.
func (n *ConvNet) poolForward(conv []float64) (feat []float64, argmax []int) {
	feat = make([]float64, n.D*n.poolH*n.poolW)
	argmax = make([]int, len(feat))
	for d := 0; d < n.D; d++ {
		for py := 0; py < n.poolH; py++ {
			for px := 0; px < n.poolW; px++ {
				best, bi := math.Inf(-1), -1
				for i := 0; i < n.PoolK; i++ {
					for j := 0; j < n.PoolK; j++ {
						idx := (d*n.convH+py*n.PoolS+i)*n.convW + px*n.PoolS + j
						v := conv[idx]
						if v < 0 {
							v = 0 // ReLU
						}
						if v > best {
							best, bi = v, idx
						}
					}
				}
				o := (d*n.poolH+py)*n.poolW + px
				feat[o] = best
				argmax[o] = bi
			}
		}
	}
	return feat, argmax
}

// Predict classifies one image (float path).
func (n *ConvNet) Predict(img *tensor.Int) int {
	conv := n.convForward(normalize(img))
	feat, _ := n.poolForward(conv)
	return n.Head.Predict(feat)
}

// Accuracy evaluates the float path.
func (n *ConvNet) Accuracy(d *ImageDataset) float64 {
	hit := 0
	for i, img := range d.X {
		if n.Predict(img) == d.Y[i] {
			hit++
		}
	}
	return hitRate(hit, d.Len())
}

// Train runs end-to-end SGD (conv + head) and returns the final epoch's
// average loss.
func (n *ConvNet) Train(d *ImageDataset, rng *stats.RNG, epochs int, lr float64) float64 {
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
			loss += n.step(d.X[s], d.Y[s], lr)
		}
		loss /= float64(d.Len())
	}
	return loss
}

// step performs one end-to-end SGD update.
func (n *ConvNet) step(img *tensor.Int, y int, lr float64) float64 {
	x := normalize(img)
	conv := n.convForward(x)
	feat, argmax := n.poolForward(conv)
	loss, dFeat := n.Head.stepWithInputGrad(feat, y, lr)
	// Backprop through pool (route to argmax) and ReLU.
	dConv := make([]float64, len(conv))
	for o, g := range dFeat {
		idx := argmax[o]
		if conv[idx] > 0 { // ReLU gate
			dConv[idx] += g
		}
	}
	// Conv weight/bias gradients.
	for d := 0; d < n.D; d++ {
		for yo := 0; yo < n.convH; yo++ {
			for xo := 0; xo < n.convW; xo++ {
				g := dConv[(d*n.convH+yo)*n.convW+xo]
				if g == 0 {
					continue
				}
				n.B[d] -= lr * g
				for i := 0; i < n.Z; i++ {
					hy := yo*n.S + i - n.Pad
					if hy < 0 || hy >= n.inH {
						continue
					}
					for j := 0; j < n.G; j++ {
						wx := xo*n.S + j - n.Pad
						if wx < 0 || wx >= n.inW {
							continue
						}
						n.W[(d*n.Z+i)*n.G+j] -= lr * g * x[hy*n.inW+wx]
					}
				}
			}
		}
	}
	return loss
}

// Quantize lowers the trained ConvNet into the integer CNN form: 8-bit
// symmetric conv filters, a calibrated feature shift, and a head fine-tuned
// for a few epochs on the quantised features before its own quantisation —
// the standard post-training pipeline for PIM deployment.
func (n *ConvNet) Quantize(rng *stats.RNG, calib *ImageDataset, tuneEpochs int, tuneLR float64) (*CNN, error) {
	if calib.Len() == 0 {
		return nil, fmt.Errorf("workload: empty calibration set")
	}
	maxAbs := 0.0
	for _, w := range n.W {
		if a := math.Abs(w); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	c := &CNN{
		Filters: tensor.NewFilter(n.D, n.C, n.Z, n.G),
		Stride:  n.S, Pad: n.Pad, PoolK: n.PoolK, PoolS: n.PoolS,
	}
	for i, w := range n.W {
		code := int(math.Round(w / maxAbs * 127))
		c.Filters.Data[i] = int32(code)
	}
	// Calibrate the feature shift over the calibration images, then
	// fine-tune a copy of the float head on the quantised features and
	// quantise it.
	feats := &Dataset{Dim: n.D * n.poolH * n.poolW, Classes: calib.Classes,
		X: c.calibrate(calib.X), Y: append([]int(nil), calib.Y...)}
	head := n.Head.clone()
	head.Train(feats, rng, tuneEpochs, tuneLR)
	q, err := Quantize(head, feats, 8)
	if err != nil {
		return nil, err
	}
	c.Head = q
	c.headFloat = head
	return c, nil
}

// clone deep-copies an MLP.
func (m *MLP) clone() *MLP {
	cp := &MLP{Sizes: append([]int(nil), m.Sizes...)}
	for l := range m.W {
		w := make([][]float64, len(m.W[l]))
		for o := range w {
			w[o] = append([]float64(nil), m.W[l][o]...)
		}
		cp.W = append(cp.W, w)
		cp.B = append(cp.B, append([]float64(nil), m.B[l]...))
	}
	return cp
}
