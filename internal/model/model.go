// Package model defines the network description format used by all
// simulators — layer shapes with derived dimensions, MAC and parameter
// counts — plus the 15-benchmark zoo of Table III (VGG-A..D, MSRA-1/2/3,
// ResNet-18/50/101/152, SqueezeNet, CNN-1, MLP-L).
//
// The zoo encodes layer *shapes* only; actual weights come from package
// workload (trained or synthetic). Branching topologies (ResNet residuals,
// SqueezeNet fire expands) are linearised for the analytic simulators: each
// parallel convolution appears as its own layer with an explicit input shape
// and the merge is reflected in the next layer's input channels. Element-wise
// residual adds contribute no MACs and are ignored, as in the paper's
// modelling.
package model

import "fmt"

// Kind enumerates layer types.
type Kind int

const (
	// KindConv is a 2-D convolution (with folded ReLU).
	KindConv Kind = iota
	// KindFC is a fully-connected layer (with folded ReLU except the last).
	KindFC
	// KindMaxPool is max pooling.
	KindMaxPool
	// KindAvgPool is average pooling.
	KindAvgPool
)

// String returns the layer kind's name.
func (k Kind) String() string {
	switch k {
	case KindConv:
		return "conv"
	case KindFC:
		return "fc"
	case KindMaxPool:
		return "maxpool"
	case KindAvgPool:
		return "avgpool"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Layer is one network layer with both its configuration and the derived
// input/output dimensions (filled by Spec.Compile). Parameter names follow
// Table I of the paper: C/H/W input channel/height/width, D output channels,
// Z/G filter height/width, S stride, E/F output height/width.
type Layer struct {
	Name string
	Kind Kind

	// Input dims.
	C, H, W int
	// Filter dims (conv: D×C×Z×G; FC: D×(C·H·W); pool: Z=G=kernel).
	D, Z, G int
	S, Pad  int
	// Output dims.
	E, F int
}

// IsWeighted reports whether the layer holds trainable weights.
func (l Layer) IsWeighted() bool { return l.Kind == KindConv || l.Kind == KindFC }

// MACs returns the multiply-accumulate count of one inference pass.
func (l Layer) MACs() int64 {
	switch l.Kind {
	case KindConv:
		return int64(l.D) * int64(l.E) * int64(l.F) * int64(l.C) * int64(l.Z) * int64(l.G)
	case KindFC:
		return int64(l.D) * int64(l.C) * int64(l.H) * int64(l.W)
	default:
		return 0
	}
}

// Params returns the trainable weight count (biases excluded, as in the
// paper's crossbar capacity accounting).
func (l Layer) Params() int64 {
	switch l.Kind {
	case KindConv:
		return int64(l.D) * int64(l.C) * int64(l.Z) * int64(l.G)
	case KindFC:
		return int64(l.D) * int64(l.C) * int64(l.H) * int64(l.W)
	default:
		return 0
	}
}

// Inputs returns the input element count C·H·W.
func (l Layer) Inputs() int64 { return int64(l.C) * int64(l.H) * int64(l.W) }

// Outputs returns the output element count.
func (l Layer) Outputs() int64 {
	switch l.Kind {
	case KindConv, KindMaxPool, KindAvgPool:
		d := l.D
		if l.Kind != KindConv {
			d = l.C
		}
		return int64(d) * int64(l.E) * int64(l.F)
	case KindFC:
		return int64(l.D)
	}
	return 0
}

// DotRows returns the im2col row count C·Z·G a weighted layer occupies in a
// crossbar (the dot-product depth per output).
func (l Layer) DotRows() int {
	switch l.Kind {
	case KindConv:
		return l.C * l.Z * l.G
	case KindFC:
		return l.C * l.H * l.W
	}
	return 0
}

// String summarises the layer's shape for diagnostics.
func (l Layer) String() string {
	switch l.Kind {
	case KindConv:
		return fmt.Sprintf("%s: conv %dx%dx%d -> %d@%dx%d s%d p%d -> %dx%dx%d",
			l.Name, l.C, l.H, l.W, l.D, l.Z, l.G, l.S, l.Pad, l.D, l.E, l.F)
	case KindFC:
		return fmt.Sprintf("%s: fc %d -> %d", l.Name, l.C*l.H*l.W, l.D)
	default:
		return fmt.Sprintf("%s: %s %dx%d s%d: %dx%dx%d -> %dx%dx%d",
			l.Name, l.Kind, l.Z, l.G, l.S, l.C, l.H, l.W, l.C, l.E, l.F)
	}
}

// Network is an ordered collection of layers with a fixed input shape.
type Network struct {
	Name          string
	InC, InH, InW int
	Layers        []Layer
}

// ConvLayers returns only the convolutional layers (the scope of Fig. 4 and
// Table V: "All CONV layers").
func (n *Network) ConvLayers() []Layer {
	var out []Layer
	for _, l := range n.Layers {
		if l.Kind == KindConv {
			out = append(out, l)
		}
	}
	return out
}

// WeightedLayers returns conv and FC layers.
func (n *Network) WeightedLayers() []Layer {
	var out []Layer
	for _, l := range n.Layers {
		if l.IsWeighted() {
			out = append(out, l)
		}
	}
	return out
}

// TotalMACs sums MACs over all layers.
func (n *Network) TotalMACs() int64 {
	var s int64
	for _, l := range n.Layers {
		s += l.MACs()
	}
	return s
}

// TotalParams sums trainable weights over all layers.
func (n *Network) TotalParams() int64 {
	var s int64
	for _, l := range n.Layers {
		s += l.Params()
	}
	return s
}

func convOut(n, k, s, p int) int { return (n+2*p-k)/s + 1 }
