package model

import "fmt"

// This file defines the 15 benchmarks of Table III as declarative spec
// tables: each family generator assembles a Spec from its configuration
// data (stage widths, block counts, fire sizes) and every network is built
// through the one Spec.Compile path — the same compiler that serves
// custom user networks. Networks whose exact layer tables are not in the
// TIMELY/PRIME/ISAAC papers are reconstructed from their original
// publications; approximations are noted inline and in DESIGN.md.

// Spec-literal helpers for the zoo tables.

func conv(name string, filters, kernel, stride, pad int) LayerSpec {
	return LayerSpec{Name: name, Kind: "conv", Filters: filters, Kernel: kernel, Stride: stride, Pad: pad}
}

func fc(name string, units int) LayerSpec {
	return LayerSpec{Name: name, Kind: "fc", Units: units}
}

func pool(kind string, kernel, stride, pad int) LayerSpec {
	return LayerSpec{Kind: kind, Kernel: kernel, Stride: stride, Pad: pad}
}

// convAt is a conv fed by an explicit earlier activation — the linearised
// form of a parallel branch (ResNet projection shortcuts).
func convAt(in Dims, name string, filters, kernel, stride, pad int) LayerSpec {
	l := conv(name, filters, kernel, stride, pad)
	l.Input = &in
	return l
}

// vggStage is one pooling stage of a VGG configuration: channel width,
// 3×3 conv count, and the kernel of the optional extra conv (1 for C's
// 1×1 convs, 3 for D's 3×3, 0 for none).
type vggStage struct {
	d, convs, extraK int
}

// vggStages tabulates configurations A–D of Simonyan & Zisserman, which
// ISAAC calls VGG-1..4 and the TIMELY paper evaluates as such.
var vggStages = map[string][]vggStage{
	"A": {{64, 1, 0}, {128, 1, 0}, {256, 2, 0}, {512, 2, 0}, {512, 2, 0}},
	"B": {{64, 2, 0}, {128, 2, 0}, {256, 2, 0}, {512, 2, 0}, {512, 2, 0}},
	"C": {{64, 2, 0}, {128, 2, 0}, {256, 2, 1}, {512, 2, 1}, {512, 2, 1}},
	"D": {{64, 2, 0}, {128, 2, 0}, {256, 2, 3}, {512, 2, 3}, {512, 2, 3}},
}

// VGG builds configuration v ("A"/"B"/"C"/"D") from the stage table.
// VGG-D is the VGG-16 used for the paper's deep-dive experiments.
func VGG(v string) *Network {
	stages, ok := vggStages[v]
	if !ok {
		panic(fmt.Sprintf("model: unknown VGG configuration %q", v))
	}
	s := Spec{Name: "VGG-" + v, Input: Dims{C: 3, H: 224, W: 224}}
	for si, st := range stages {
		for i := 0; i < st.convs; i++ {
			s.Layers = append(s.Layers, conv(fmt.Sprintf("conv%d_%d", si+1, i+1), st.d, 3, 1, 1))
		}
		if st.extraK > 0 {
			s.Layers = append(s.Layers, conv(fmt.Sprintf("conv%d_%d", si+1, st.convs+1), st.d, st.extraK, 1, st.extraK/2))
		}
		s.Layers = append(s.Layers, pool("maxpool", 2, 2, 0))
	}
	s.Layers = append(s.Layers, fc("fc6", 4096), fc("fc7", 4096), fc("fc8", 1000))
	return mustCompile(&s)
}

// MSRA builds model n ∈ {1,2,3} of He et al. 2015 ("Delving Deep into
// Rectifiers"), the MSRA-1/2/3 benchmarks ISAAC and TIMELY use. Model A has
// a 7×7/2 stem and three 5-conv stages; model B deepens each stage to 6
// convs; model C widens B's channels to 384/768/896. The SPP head is
// approximated by a final max pool to 7×7 (shape-level approximation, noted
// in DESIGN.md).
func MSRA(n int) *Network {
	if n < 1 || n > 3 {
		panic(fmt.Sprintf("model: unknown MSRA model %d", n))
	}
	convsPerStage := 5
	ch := []int{256, 512, 512}
	if n >= 2 {
		convsPerStage = 6
	}
	if n == 3 {
		ch = []int{384, 768, 896}
	}
	s := Spec{Name: fmt.Sprintf("MSRA-%d", n), Input: Dims{C: 3, H: 224, W: 224}}
	s.Layers = append(s.Layers,
		conv("conv1", 96, 7, 2, 3), // 224 -> 112
		pool("maxpool", 2, 2, 0),   // 112 -> 56
	)
	for si, d := range ch {
		for i := 0; i < convsPerStage; i++ {
			s.Layers = append(s.Layers, conv(fmt.Sprintf("conv%d_%d", si+2, i+1), d, 3, 1, 1))
		}
		if si < len(ch)-1 {
			s.Layers = append(s.Layers, pool("maxpool", 2, 2, 0))
		}
	}
	s.Layers = append(s.Layers, pool("maxpool", 2, 2, 0)) // SPP approximation: 14 -> 7
	s.Layers = append(s.Layers, fc("fc1", 4096), fc("fc2", 4096), fc("fc3", 1000))
	return mustCompile(&s)
}

// resNetCfg tabulates the standard ImageNet ResNets: per-stage block
// counts and whether blocks are bottlenecks (18 uses basic blocks).
var resNetCfg = map[int]struct {
	blocks     [4]int
	bottleneck bool
}{
	18:  {[4]int{2, 2, 2, 2}, false},
	50:  {[4]int{3, 4, 6, 3}, true},
	101: {[4]int{3, 4, 23, 3}, true},
	152: {[4]int{3, 8, 36, 3}, true},
}

// ResNet builds the ResNet of the given depth (18, 50, 101 or 152) from
// the block table. Projection (1×1) shortcuts appear at each stage entry
// as explicit-input branch layers; identity shortcuts carry no weights and
// are omitted (no MACs in the paper's accounting). A projection's output
// shape coincides with the main path's block output, so shape propagation
// resumes on the main path without further annotation.
func ResNet(depth int) *Network {
	c, ok := resNetCfg[depth]
	if !ok {
		panic(fmt.Sprintf("model: unsupported ResNet depth %d", depth))
	}
	s := Spec{Name: fmt.Sprintf("ResNet-%d", depth), Input: Dims{C: 3, H: 224, W: 224}}
	s.Layers = append(s.Layers,
		conv("conv1", 64, 7, 2, 3), // 224 -> 112
		pool("maxpool", 3, 2, 1),   // 112 -> 56
	)
	in := Dims{C: 64, H: 56, W: 56} // block input, starting after the stem
	width := []int{64, 128, 256, 512}
	for stage := 0; stage < 4; stage++ {
		d := width[stage]
		for blk := 0; blk < c.blocks[stage]; blk++ {
			stride := 1
			if stage > 0 && blk == 0 {
				stride = 2
			}
			prefix := fmt.Sprintf("conv%d_%d", stage+2, blk+1)
			// Every first conv of a block maps H to (H-1)/stride+1
			// (1×1/s/p0 and 3×3/s/p1 agree), and the rest preserve it.
			out := Dims{C: d, H: (in.H-1)/stride + 1, W: (in.W-1)/stride + 1}
			if c.bottleneck {
				out.C = 4 * d
				s.Layers = append(s.Layers,
					conv(prefix+"_a", d, 1, stride, 0),
					conv(prefix+"_b", d, 3, 1, 1),
					conv(prefix+"_c", out.C, 1, 1, 0))
				if blk == 0 {
					s.Layers = append(s.Layers, convAt(in, prefix+"_proj", out.C, 1, stride, 0))
				}
			} else {
				s.Layers = append(s.Layers,
					conv(prefix+"_a", d, 3, stride, 1),
					conv(prefix+"_b", d, 3, 1, 1))
				if blk == 0 && stride != 1 {
					s.Layers = append(s.Layers, convAt(in, prefix+"_proj", d, 1, stride, 0))
				}
			}
			in = out
		}
	}
	s.Layers = append(s.Layers, pool("avgpool", 7, 7, 0), fc("fc", 1000))
	return mustCompile(&s)
}

// SqueezeNet builds SqueezeNet v1.0 (Iandola et al.). Each fire module is a
// 1×1 squeeze followed by parallel 1×1 and 3×3 expands whose outputs
// concatenate; the parallel expands appear as two layers sharing the squeeze
// output (the 3×3 expand carries an explicit input), and the concatenated
// channel count becomes the next layer's explicit input.
func SqueezeNet() *Network {
	s := Spec{Name: "SqueezeNet", Input: Dims{C: 3, H: 224, W: 224}}
	s.Layers = append(s.Layers,
		conv("conv1", 96, 7, 2, 2), // 224 -> 111 (v1.0 uses pad 2)
		pool("maxpool", 3, 2, 0),   // 111 -> 55
	)
	cur := Dims{C: 96, H: 55, W: 55} // logical cursor after the stem
	prop := cur                      // the shape Compile propagates layer to layer
	// at appends a layer consuming the shape in, marking an explicit input
	// wherever the logical topology diverges from linear propagation, and
	// records the shape propagation continues with.
	at := func(ls LayerSpec, in, out Dims) {
		if in != prop {
			ls.Input = &in
		}
		s.Layers = append(s.Layers, ls)
		prop = out
	}
	fire := func(i, sq, e1, e3 int) {
		h, w := cur.H, cur.W
		at(conv(fmt.Sprintf("fire%d_squeeze", i), sq, 1, 1, 0), cur, Dims{C: sq, H: h, W: w})
		at(conv(fmt.Sprintf("fire%d_expand1", i), e1, 1, 1, 0), Dims{C: sq, H: h, W: w}, Dims{C: e1, H: h, W: w})
		at(conv(fmt.Sprintf("fire%d_expand3", i), e3, 3, 1, 1), Dims{C: sq, H: h, W: w}, Dims{C: e3, H: h, W: w})
		cur = Dims{C: e1 + e3, H: h, W: w} // channel concat of the expands
	}
	shrink := func() {
		out := Dims{C: cur.C, H: (cur.H-3)/2 + 1, W: (cur.W-3)/2 + 1}
		at(pool("maxpool", 3, 2, 0), cur, out)
		cur = out
	}
	fire(2, 16, 64, 64)
	fire(3, 16, 64, 64)
	fire(4, 32, 128, 128)
	shrink() // 55 -> 27
	fire(5, 32, 128, 128)
	fire(6, 48, 192, 192)
	fire(7, 48, 192, 192)
	fire(8, 64, 256, 256)
	shrink() // 27 -> 13
	fire(9, 64, 256, 256)
	at(conv("conv10", 1000, 1, 1, 0), cur, Dims{C: 1000, H: cur.H, W: cur.W})
	at(pool("avgpool", 13, 13, 0), Dims{C: 1000, H: 13, W: 13}, Dims{C: 1000, H: 1, W: 1})
	return mustCompile(&s)
}

// CNN1 is PRIME's CNN-1 MNIST benchmark (Caffe LeNet shape:
// conv5×5-20, pool2, conv5×5-50, pool2, fc500, fc10).
func CNN1() *Network {
	return mustCompile(&Spec{
		Name:  "CNN-1",
		Input: Dims{C: 1, H: 28, W: 28},
		Layers: []LayerSpec{
			conv("conv1", 20, 5, 1, 0), // 28 -> 24
			pool("maxpool", 2, 2, 0),   // 24 -> 12
			conv("conv2", 50, 5, 1, 0), // 12 -> 8
			pool("maxpool", 2, 2, 0),   // 8 -> 4
			fc("fc1", 500),
			fc("fc2", 10),
		},
	})
}

// MLPL is PRIME's MLP-L MNIST benchmark: 784-1500-1000-500-10.
func MLPL() *Network {
	return mustCompile(&Spec{
		Name:  "MLP-L",
		Input: Dims{C: 1, H: 28, W: 28},
		Layers: []LayerSpec{
			fc("fc1", 1500), fc("fc2", 1000), fc("fc3", 500), fc("fc4", 10),
		},
	})
}

// renamed evaluates a family constructor under a published alias
// (ISAAC's VGG-1..4 numbering of configurations A..D).
func renamed(n *Network, name string) *Network {
	n.Name = name
	return n
}

// zoo maps every Table III name to its builder.
var zoo = map[string]func() *Network{
	"VGG-D":      func() *Network { return VGG("D") },
	"VGG-1":      func() *Network { return renamed(VGG("A"), "VGG-1") },
	"VGG-2":      func() *Network { return renamed(VGG("B"), "VGG-2") },
	"VGG-3":      func() *Network { return renamed(VGG("C"), "VGG-3") },
	"VGG-4":      func() *Network { return renamed(VGG("D"), "VGG-4") },
	"MSRA-1":     func() *Network { return MSRA(1) },
	"MSRA-2":     func() *Network { return MSRA(2) },
	"MSRA-3":     func() *Network { return MSRA(3) },
	"ResNet-18":  func() *Network { return ResNet(18) },
	"ResNet-50":  func() *Network { return ResNet(50) },
	"ResNet-101": func() *Network { return ResNet(101) },
	"ResNet-152": func() *Network { return ResNet(152) },
	"SqueezeNet": SqueezeNet,
	"CNN-1":      CNN1,
	"MLP-L":      MLPL,
}

// zooOrder is the Table III suite in the paper's order.
var zooOrder = []string{
	"VGG-D", "CNN-1", "MLP-L",
	"VGG-1", "VGG-2", "VGG-3", "VGG-4",
	"MSRA-1", "MSRA-2", "MSRA-3",
	"ResNet-18", "ResNet-50", "ResNet-101", "ResNet-152",
	"SqueezeNet",
}

// ByName returns the benchmark with the given Table III name.
func ByName(name string) (*Network, error) {
	build, ok := zoo[name]
	if !ok {
		return nil, fmt.Errorf("model: unknown benchmark %q", name)
	}
	return build(), nil
}

// IsBenchmark reports whether name is a Table III benchmark, without
// building the network.
func IsBenchmark(name string) bool {
	_, ok := zoo[name]
	return ok
}

// BenchmarkNames returns the Table III names in the paper's order.
func BenchmarkNames() []string {
	return append([]string(nil), zooOrder...)
}

// Benchmarks returns the full Table III suite in the paper's order.
func Benchmarks() []*Network {
	out := make([]*Network, len(zooOrder))
	for i, n := range zooOrder {
		net, err := ByName(n)
		if err != nil {
			panic(err)
		}
		out[i] = net
	}
	return out
}
