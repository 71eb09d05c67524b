package model

import (
	"strings"
	"testing"
)

func TestVGGDShape(t *testing.T) {
	n := VGG("D")
	convs := n.ConvLayers()
	if len(convs) != 13 {
		t.Fatalf("VGG-D conv layers = %d, want 13", len(convs))
	}
	var fcs int
	for _, l := range n.Layers {
		if l.Kind == KindFC {
			fcs++
		}
	}
	if fcs != 3 {
		t.Errorf("VGG-D FC layers = %d, want 3", fcs)
	}
	// CONV2 of Table V: 64-channel 224x224 input, 3x3, 64 filters.
	c2 := convs[1]
	if c2.C != 64 || c2.H != 224 || c2.D != 64 || c2.Z != 3 {
		t.Errorf("VGG-D conv2 = %+v", c2)
	}
	// fc6 consumes 512x7x7.
	for _, l := range n.Layers {
		if l.Name == "fc6" {
			if l.C != 512 || l.H != 7 || l.W != 7 {
				t.Errorf("fc6 input = %dx%dx%d, want 512x7x7", l.C, l.H, l.W)
			}
		}
	}
}

func TestVGGDTotals(t *testing.T) {
	n := VGG("D")
	// Published VGG-16: ~138.3M params, ~15.5G MACs.
	if p := n.TotalParams(); p < 133_000_000 || p > 144_000_000 {
		t.Errorf("VGG-D params = %d, want ≈138M", p)
	}
	if m := n.TotalMACs(); m < 15_000_000_000 || m > 16_000_000_000 {
		t.Errorf("VGG-D MACs = %d, want ≈15.5G", m)
	}
}

func TestVGGVariantConvCounts(t *testing.T) {
	for _, c := range []struct {
		v    string
		want int
	}{{"A", 8}, {"B", 10}, {"C", 13}, {"D", 13}} {
		if got := len(VGG(c.v).ConvLayers()); got != c.want {
			t.Errorf("VGG-%s conv layers = %d, want %d", c.v, got, c.want)
		}
	}
	// VGG-C's extra convs are 1x1, VGG-D's are 3x3. Stage 3's extra conv
	// (conv3_3) is the 7th conv layer (index 6) in both configurations.
	cC := VGG("C").ConvLayers()
	if cC[6].Name != "conv3_3" || cC[6].Z != 1 {
		t.Errorf("VGG-C conv3_3 = %+v, want 1x1 kernel", cC[6])
	}
	cD := VGG("D").ConvLayers()
	if cD[6].Name != "conv3_3" || cD[6].Z != 3 {
		t.Errorf("VGG-D conv3_3 = %+v, want 3x3 kernel", cD[6])
	}
}

func TestResNetWeightedLayerCounts(t *testing.T) {
	// Weighted layers: convs (incl. projections) + final FC. The canonical
	// depth counts 18/50/101/152 exclude projections; with the 3 (resp. 4)
	// projection shortcuts the totals grow accordingly.
	cases := []struct {
		depth, wantConvFC int
	}{
		{18, 18 + 3}, // 17 convs + fc + 3 projections (stages 3,4,5)
		{50, 50 + 4}, // 49 convs + fc + 4 projections
		{101, 101 + 4},
		{152, 152 + 4},
	}
	for _, c := range cases {
		n := ResNet(c.depth)
		if got := len(n.WeightedLayers()); got != c.wantConvFC {
			t.Errorf("ResNet-%d weighted layers = %d, want %d", c.depth, got, c.wantConvFC)
		}
	}
}

func TestResNet50Totals(t *testing.T) {
	n := ResNet(50)
	// Published ResNet-50: ~25.5M params (incl. BN; conv+fc ≈ 25.5M), ~4.1G MACs.
	if p := n.TotalParams(); p < 23_000_000 || p > 27_000_000 {
		t.Errorf("ResNet-50 params = %d, want ≈25.5M", p)
	}
	if m := n.TotalMACs(); m < 3_600_000_000 || m > 4_400_000_000 {
		t.Errorf("ResNet-50 MACs = %d, want ≈4.1G", m)
	}
	// Final FC consumes 2048 features.
	last := n.Layers[len(n.Layers)-1]
	if last.Kind != KindFC || last.C != 2048 || last.H != 1 {
		t.Errorf("ResNet-50 head = %+v, want fc over 2048x1x1", last)
	}
}

func TestResNet18Stem(t *testing.T) {
	n := ResNet(18)
	stem := n.Layers[0]
	if stem.D != 64 || stem.Z != 7 || stem.S != 2 || stem.E != 112 {
		t.Errorf("ResNet stem = %+v", stem)
	}
	pool := n.Layers[1]
	if pool.Kind != KindMaxPool || pool.E != 56 {
		t.Errorf("ResNet stem pool = %+v, want 56x56 out", pool)
	}
}

func TestSqueezeNet(t *testing.T) {
	n := SqueezeNet()
	// 26 weighted layers: conv1 + 8 fires x 3 + conv10.
	if got := len(n.WeightedLayers()); got != 26 {
		t.Errorf("SqueezeNet weighted layers = %d, want 26", got)
	}
	// Published: ~1.25M params.
	if p := n.TotalParams(); p < 1_100_000 || p > 1_400_000 {
		t.Errorf("SqueezeNet params = %d, want ≈1.25M", p)
	}
	// fire2 expand3 input must be the squeeze output (16 ch).
	for _, l := range n.Layers {
		if l.Name == "fire2_expand3" && l.C != 16 {
			t.Errorf("fire2_expand3 input channels = %d, want 16", l.C)
		}
		if l.Name == "fire3_squeeze" && l.C != 128 {
			t.Errorf("fire3_squeeze input channels = %d, want 128 (concat)", l.C)
		}
	}
}

func TestMSRAShapes(t *testing.T) {
	m1, m2, m3 := MSRA(1), MSRA(2), MSRA(3)
	if got := len(m1.WeightedLayers()); got != 19 {
		t.Errorf("MSRA-1 weighted layers = %d, want 19", got)
	}
	if got := len(m2.WeightedLayers()); got != 22 {
		t.Errorf("MSRA-2 weighted layers = %d, want 22", got)
	}
	if got := len(m3.WeightedLayers()); got != 22 {
		t.Errorf("MSRA-3 weighted layers = %d, want 22", got)
	}
	// MSRA-3 must be wider than MSRA-2.
	if m3.TotalParams() <= m2.TotalParams() {
		t.Errorf("MSRA-3 params (%d) not larger than MSRA-2 (%d)",
			m3.TotalParams(), m2.TotalParams())
	}
	// MSRA-2 deeper than MSRA-1.
	if m2.TotalMACs() <= m1.TotalMACs() {
		t.Errorf("MSRA-2 MACs not larger than MSRA-1")
	}
}

func TestCNN1AndMLPL(t *testing.T) {
	c := CNN1()
	if got := len(c.WeightedLayers()); got != 4 {
		t.Errorf("CNN-1 weighted layers = %d, want 4", got)
	}
	// fc1 consumes 50x4x4 = 800 features.
	for _, l := range c.Layers {
		if l.Name == "fc1" && l.C*l.H*l.W != 800 {
			t.Errorf("CNN-1 fc1 inputs = %d, want 800", l.C*l.H*l.W)
		}
	}
	m := MLPL()
	if got := m.TotalParams(); got != 784*1500+1500*1000+1000*500+500*10 {
		t.Errorf("MLP-L params = %d", got)
	}
}

func TestBenchmarksComplete(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 15 {
		t.Fatalf("benchmark suite has %d entries, want 15 (Table III)", len(bs))
	}
	seen := map[string]bool{}
	for _, n := range bs {
		if seen[n.Name] {
			t.Errorf("duplicate benchmark %s", n.Name)
		}
		seen[n.Name] = true
		if n.TotalMACs() <= 0 {
			t.Errorf("%s has no MACs", n.Name)
		}
		// Dimension propagation sanity: every layer's input equals the
		// previous sequential layer's output unless explicitly branched.
		for _, l := range n.Layers {
			if l.E <= 0 || l.F <= 0 {
				t.Errorf("%s/%s has empty output", n.Name, l.Name)
			}
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("AlexNet"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("ByName on unknown model: err = %v", err)
	}
}

func TestLayerStringHasName(t *testing.T) {
	n := VGG("D")
	for _, l := range n.Layers {
		if !strings.Contains(l.String(), l.Name) && l.IsWeighted() {
			t.Errorf("String() of %s lacks its name: %s", l.Name, l.String())
		}
	}
}
