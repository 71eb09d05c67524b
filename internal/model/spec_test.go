package model

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestZooSpecRoundTrip is the zoo equivalence proof: every Table III
// network exported to its declarative spec, serialized to JSON, parsed
// back and compiled must reproduce the exact layer table — every field of
// every layer — plus the derived MAC and parameter totals.
func TestZooSpecRoundTrip(t *testing.T) {
	for _, n := range Benchmarks() {
		spec := n.Spec()

		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("%s: marshal spec: %v", n.Name, err)
		}
		var parsed Spec
		if err := json.Unmarshal(raw, &parsed); err != nil {
			t.Fatalf("%s: unmarshal spec: %v", n.Name, err)
		}
		got, err := parsed.Compile()
		if err != nil {
			t.Fatalf("%s: compile exported spec: %v", n.Name, err)
		}

		if got.Name != n.Name || got.InC != n.InC || got.InH != n.InH || got.InW != n.InW {
			t.Errorf("%s: header mismatch: got %s %dx%dx%d", n.Name, got.Name, got.InC, got.InH, got.InW)
		}
		if !reflect.DeepEqual(got.Layers, n.Layers) {
			if len(got.Layers) != len(n.Layers) {
				t.Fatalf("%s: layer count %d != %d", n.Name, len(got.Layers), len(n.Layers))
			}
			for i := range n.Layers {
				if got.Layers[i] != n.Layers[i] {
					t.Errorf("%s layer %d:\n got  %+v\n want %+v", n.Name, i, got.Layers[i], n.Layers[i])
				}
			}
		}
		if got.TotalMACs() != n.TotalMACs() {
			t.Errorf("%s: MACs %d != %d", n.Name, got.TotalMACs(), n.TotalMACs())
		}
		if got.TotalParams() != n.TotalParams() {
			t.Errorf("%s: params %d != %d", n.Name, got.TotalParams(), n.TotalParams())
		}
		if got.SpecHash() != n.SpecHash() {
			t.Errorf("%s: hash changed across round trip", n.Name)
		}
	}
}

// TestZooGoldenTotals pins the exact layer counts and derived totals of
// the spec-compiled zoo, so a silent change to either the spec tables or
// the compiler's shape inference cannot pass unnoticed.
func TestZooGoldenTotals(t *testing.T) {
	golden := []struct {
		name   string
		layers int
		macs   int64
		params int64
	}{
		{"VGG-D", 21, 15470264320, 138344128},
		{"CNN-1", 6, 2293000, 430500},
		{"MLP-L", 4, 3181000, 3181000},
		{"VGG-1", 16, 7609090048, 132851392},
		{"VGG-2", 18, 11308466176, 133035712},
		{"VGG-3", 21, 11770888192, 133625536},
		{"VGG-4", 21, 15470264320, 138344128},
		{"MSRA-1", 23, 19028746240, 148641568},
		{"MSRA-2", 26, 23190544384, 153949984},
		{"MSRA-3", 26, 53411749888, 279201568},
		{"ResNet-18", 23, 1814073344, 11678912},
		{"ResNet-50", 56, 3857973248, 25502912},
		{"ResNet-101", 107, 7570194432, 44442816},
		{"ResNet-152", 158, 11282415616, 60040384},
		{"SqueezeNet", 30, 832667936, 1244448},
	}
	if len(golden) != len(BenchmarkNames()) {
		t.Fatalf("golden table covers %d networks, zoo has %d", len(golden), len(BenchmarkNames()))
	}
	for _, g := range golden {
		n, err := ByName(g.name)
		if err != nil {
			t.Fatal(err)
		}
		if len(n.Layers) != g.layers || n.TotalMACs() != g.macs || n.TotalParams() != g.params {
			t.Errorf("%s: layers/MACs/params = %d/%d/%d, want %d/%d/%d",
				g.name, len(n.Layers), n.TotalMACs(), n.TotalParams(), g.layers, g.macs, g.params)
		}
	}
}

// specErr compiles the spec expecting a *SpecError mentioning field on
// layer index.
func specErr(t *testing.T, s *Spec, layer int, field string) *SpecError {
	t.Helper()
	_, err := s.Compile()
	if err == nil {
		t.Fatalf("Compile(%s) succeeded, want error on layer %d field %q", s.Name, layer, field)
	}
	var se *SpecError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *SpecError: %v", err, err)
	}
	if se.Layer != layer || se.Field != field {
		t.Fatalf("error at layer %d field %q, want layer %d field %q: %v",
			se.Layer, se.Field, layer, field, err)
	}
	return se
}

func TestSpecValidation(t *testing.T) {
	valid := func() *Spec {
		return &Spec{
			Name:  "t",
			Input: Dims{C: 3, H: 8, W: 8},
			Layers: []LayerSpec{
				{Name: "c1", Kind: "conv", Filters: 4, Kernel: 3, Pad: 1},
				{Kind: "maxpool", Kernel: 2, Stride: 2},
				{Name: "out", Kind: "fc", Units: 10},
			},
		}
	}
	if _, err := valid().Compile(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	t.Run("spec level", func(t *testing.T) {
		s := valid()
		s.Name = ""
		specErr(t, s, -1, "name")

		s = valid()
		s.Input = Dims{C: 0, H: 8, W: 8}
		specErr(t, s, -1, "input")

		s = valid()
		s.Input.H = -3
		specErr(t, s, -1, "input")

		s = valid()
		s.Layers = nil
		specErr(t, s, -1, "layers")

		s = valid()
		s.Layers = []LayerSpec{{Kind: "maxpool", Kernel: 2, Stride: 2}}
		specErr(t, s, -1, "layers")
	})

	t.Run("kinds and fields", func(t *testing.T) {
		s := valid()
		s.Layers[0].Kind = "dropout"
		specErr(t, s, 0, "kind")

		s = valid()
		s.Layers[0].Filters = 0
		specErr(t, s, 0, "filters")

		s = valid()
		s.Layers[0].Units = 7 // units on a conv
		specErr(t, s, 0, "units")

		s = valid()
		s.Layers[2].Filters = 7 // filters on an fc
		specErr(t, s, 2, "filters")

		s = valid()
		s.Layers[2].Kernel = 3 // kernel on an fc
		specErr(t, s, 2, "kernel")

		s = valid()
		s.Layers[2].Units = 0
		specErr(t, s, 2, "units")

		s = valid()
		s.Layers[1].Filters = 2 // filters on a pool
		specErr(t, s, 1, "filters")

		s = valid()
		s.Layers[0].Stride = -1
		specErr(t, s, 0, "stride")

		s = valid()
		s.Layers[0].Pad = -1
		specErr(t, s, 0, "pad")
	})

	t.Run("kernels", func(t *testing.T) {
		s := valid()
		s.Layers[0].Kernel = 0 // conv with no kernel at all
		specErr(t, s, 0, "kernel")

		s = valid()
		s.Layers[0].KernelH = 3 // both forms at once
		specErr(t, s, 0, "kernel")

		s = valid()
		s.Layers[0].Kernel = 0
		s.Layers[0].KernelH = 3 // rectangular form missing kernel_w
		specErr(t, s, 0, "kernel")

		s = valid()
		s.Layers[0].Kernel = -3
		specErr(t, s, 0, "kernel")

		// Rectangular pools are not representable in the layer model.
		s = valid()
		s.Layers[1].Kernel = 0
		s.Layers[1].KernelH, s.Layers[1].KernelW = 2, 3
		specErr(t, s, 1, "kernel")

		// A rectangular conv kernel is fine.
		s = valid()
		s.Layers[0].Kernel = 0
		s.Layers[0].KernelH, s.Layers[0].KernelW = 1, 3
		n, err := s.Compile()
		if err != nil {
			t.Fatalf("rectangular kernel rejected: %v", err)
		}
		if l := n.Layers[0]; l.Z != 1 || l.G != 3 {
			t.Errorf("rect kernel compiled to %dx%d", l.Z, l.G)
		}
	})

	t.Run("shape inference", func(t *testing.T) {
		// Kernel larger than the padded input: empty output.
		s := valid()
		s.Layers[0].Kernel = 9
		s.Layers[0].Pad = 0
		specErr(t, s, 0, "kernel")

		// Stride larger than the kernel is legal — it skips positions.
		s = valid()
		s.Layers[0].Stride = 5
		n, err := s.Compile()
		if err != nil {
			t.Fatalf("stride > kernel rejected: %v", err)
		}
		if l := n.Layers[0]; l.E != 2 || l.F != 2 {
			t.Errorf("stride-5 conv output = %dx%d, want 2x2", l.E, l.F)
		}

		// Stride beyond the input collapses later layers to empty output.
		s = valid()
		s.Layers[0].Stride = 9 // 8x8 -> 1x1, pool 2/2 then has nothing left
		specErr(t, s, 1, "kernel")

		// A conv after an fc sees a 1x1 map: a 3x3 kernel cannot fit.
		s = valid()
		s.Layers = append(s.Layers, LayerSpec{Name: "late", Kind: "conv", Filters: 2, Kernel: 3})
		specErr(t, s, 3, "kernel")

		// Explicit branch inputs must be positive...
		s = valid()
		s.Layers[1].Input = &Dims{C: 4, H: 0, W: 6}
		specErr(t, s, 1, "input")

		// ...and drive inference when valid: an fc consuming a merged
		// concat sees the override, not the propagated shape.
		s = valid()
		s.Layers[2].Input = &Dims{C: 9, H: 2, W: 2}
		n, err = s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if l := n.Layers[2]; l.C != 9 || l.H != 2 || l.W != 2 || l.D != 10 {
			t.Errorf("fc with explicit input compiled to %+v", l)
		}
	})
}

// TestSpecErrorText exercises the error formatting paths.
func TestSpecErrorText(t *testing.T) {
	s := &Spec{Name: "net", Input: Dims{C: 1, H: 4, W: 4},
		Layers: []LayerSpec{{Name: "bad", Kind: "conv", Filters: 0, Kernel: 3}}}
	_, err := s.Compile()
	msg := err.Error()
	for _, want := range []string{`spec "net"`, "layer 0", "bad", "filters"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}

// TestSpecAutoNames proves unnamed layers get kind+index names, so
// hand-written specs and zoo tables agree on pool naming.
func TestSpecAutoNames(t *testing.T) {
	s := &Spec{Name: "t", Input: Dims{C: 1, H: 8, W: 8},
		Layers: []LayerSpec{
			{Kind: "conv", Filters: 2, Kernel: 3, Pad: 1},
			{Kind: "maxpool", Kernel: 2, Stride: 2},
			{Kind: "fc", Units: 3},
		}}
	n, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"conv0", "maxpool1", "fc2"} {
		if n.Layers[i].Name != want {
			t.Errorf("layer %d auto-name = %q, want %q", i, n.Layers[i].Name, want)
		}
	}
}

// TestSpecHashCanonical proves semantically-identical spellings hash
// identically while different networks do not collide.
func TestSpecHashCanonical(t *testing.T) {
	a := &Spec{Name: "t", Input: Dims{C: 1, H: 8, W: 8},
		Layers: []LayerSpec{{Name: "conv0", Kind: "conv", Filters: 2, Kernel: 3, Stride: 1, Pad: 1}}}
	b := &Spec{Name: "t", Input: Dims{C: 1, H: 8, W: 8},
		Layers: []LayerSpec{{Kind: "conv", Filters: 2, KernelH: 3, KernelW: 3, Pad: 1}}}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("equivalent spellings hash differently: %s vs %s", ha, hb)
	}

	c := &Spec{Name: "t", Input: Dims{C: 1, H: 8, W: 8},
		Layers: []LayerSpec{{Kind: "conv", Filters: 3, Kernel: 3, Pad: 1}}}
	hc, err := c.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hc == ha {
		t.Errorf("different networks share hash %s", hc)
	}

	if _, err := (&Spec{Name: "bad"}).Hash(); err == nil {
		t.Errorf("Hash of invalid spec did not error")
	}

	// The hash is a pure content hash: a renamed copy of a network hashes
	// identically (VGG-D and VGG-4 are the same configuration under two
	// published names), while every distinct layer table stays distinct.
	seen := map[string]string{}
	for _, n := range Benchmarks() {
		h := n.SpecHash()
		if prev, ok := seen[h]; ok {
			same := prev == "VGG-D" && n.Name == "VGG-4"
			if !same {
				t.Errorf("%s and %s share spec hash", prev, n.Name)
			}
			continue
		}
		seen[h] = n.Name
	}
	vggD, _ := ByName("VGG-D")
	vgg4, _ := ByName("VGG-4")
	if vggD.SpecHash() != vgg4.SpecHash() {
		t.Errorf("VGG-D and VGG-4 (same layer table) hash differently")
	}
}

// FuzzSpecCompile feeds arbitrary JSON into the spec parser+compiler:
// whatever the input, Compile must either fail with an error or produce a
// network whose derived quantities are sane — never panic.
func FuzzSpecCompile(f *testing.F) {
	for _, n := range Benchmarks()[:3] {
		raw, err := json.Marshal(n.Spec())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(raw))
	}
	f.Add(`{"name":"x","input":{"c":1,"h":4,"w":4},"layers":[{"kind":"conv","filters":1,"kernel":9}]}`)
	f.Add(`{"name":"x","input":{"c":-1,"h":0,"w":4},"layers":[{"kind":"fc","units":0}]}`)
	f.Fuzz(func(t *testing.T, raw string) {
		var s Spec
		if err := json.Unmarshal([]byte(raw), &s); err != nil {
			return
		}
		n, err := s.Compile()
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("Compile error is %T, want *SpecError: %v", err, err)
			}
			return
		}
		if len(n.Layers) == 0 {
			t.Fatalf("compiled network has no layers")
		}
		if n.TotalMACs() < 0 || n.TotalParams() < 0 {
			t.Fatalf("negative totals: MACs %d params %d", n.TotalMACs(), n.TotalParams())
		}
		// A compiled network must survive its own round trip through JSON,
		// the form a registered network's canonical spec travels in.
		wire, err := json.Marshal(n.Spec())
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("decoding exported spec %s: %v", wire, err)
		}
		again, err := back.Compile()
		if err != nil {
			t.Fatalf("re-compiling exported spec: %v", err)
		}
		if again.Name != n.Name || !reflect.DeepEqual(again.Layers, n.Layers) {
			t.Fatalf("round trip changed the network")
		}
	})
}
