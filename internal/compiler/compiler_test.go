package compiler

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// lenet is a LeNet-style network on 16x16 inputs.
func lenet(t *testing.T) *model.Network {
	t.Helper()
	spec := model.Spec{
		Name:  "lenet",
		Input: model.Dims{C: 1, H: 16, W: 16},
		Layers: []model.LayerSpec{
			{Name: "conv1", Kind: "conv", Filters: 6, Kernel: 3, Pad: 1},
			{Kind: "maxpool", Kernel: 2, Stride: 2},
			{Name: "conv2", Kind: "conv", Filters: 12, Kernel: 3, Pad: 1},
			{Kind: "maxpool", Kernel: 2, Stride: 2},
			{Name: "fc1", Kind: "fc", Units: 32},
			{Name: "fc2", Kind: "fc", Units: 4},
		},
	}
	n, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCompile(t *testing.T) {
	n := lenet(t)
	prog, err := Compile(n, params.DefaultTimely(8), true)
	if err != nil {
		t.Fatal(err)
	}
	if prog.SubChips != 4 {
		t.Errorf("program uses %d sub-chips, want 4 (one per weighted layer)", prog.SubChips)
	}
	var writes, paths, pools, scales int
	for _, c := range prog.Commands {
		switch c.Op {
		case OpWriteWeights:
			writes++
		case OpConfigInputPath:
			paths++
		case OpConfigPooling:
			pools++
		case OpSetScale:
			scales++
		}
	}
	if writes != 4 || paths != 4 || scales != 4 {
		t.Errorf("commands: %d writes, %d paths, %d scales; want 4 each", writes, paths, scales)
	}
	if pools != 2 {
		t.Errorf("pooling commands = %d, want 2", pools)
	}
	// Each layer is written at its stage's first sub-chip in the plan.
	for _, c := range prog.Commands {
		want := map[string]int{"conv1": 0, "conv2": 1, "fc1": 2, "fc2": 3}[c.Layer]
		if c.SubChip != want {
			t.Errorf("%s %s on sub-chip %d, want %d", c.Op, c.Layer, c.SubChip, want)
		}
	}
	// conv2's input path must come from conv1.
	for _, c := range prog.Commands {
		if c.Op == OpConfigInputPath && c.Layer == "conv2" && c.Source != "conv1" {
			t.Errorf("conv2 input path from %q, want conv1", c.Source)
		}
		if c.Op == OpConfigInputPath && c.Layer == "conv1" && c.Source != "" {
			t.Errorf("conv1 input path from %q, want chip input", c.Source)
		}
	}
}

func TestCompileStrictRejectsHugeLayer(t *testing.T) {
	n, err := (&model.Spec{Name: "big", Input: model.Dims{C: 512, H: 14, W: 14},
		Layers: []model.LayerSpec{{Name: "huge", Kind: "conv", Filters: 512, Kernel: 3, Pad: 1}}, // rows 4608 > 4096
	}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(n, params.DefaultTimely(8), true); err == nil {
		t.Errorf("strict compile accepted a multi-sub-chip layer")
	}
	if _, err := Compile(n, params.DefaultTimely(8), false); err != nil {
		t.Errorf("non-strict compile rejected a splittable layer: %v", err)
	}
}

// TestEndToEndInference: spec → compile → load → calibrate → run, and the
// analog controller must agree with a plain integer execution of the same
// quantised network.
func TestEndToEndInference(t *testing.T) {
	n := lenet(t)
	prog, err := Compile(n, params.DefaultTimely(8), true)
	if err != nil {
		t.Fatal(err)
	}

	rng := stats.NewRNG(17)
	w := Weights{Conv: map[string]*tensor.Filter{}, FC: map[string][][]int{}}
	for _, l := range n.WeightedLayers() {
		switch l.Kind {
		case model.KindConv:
			f := tensor.NewFilter(l.D, l.C, l.Z, l.G)
			for i := range f.Data {
				f.Data[i] = int32(rng.Intn(31)) - 15
			}
			w.Conv[l.Name] = f
		case model.KindFC:
			mat := make([][]int, l.D)
			for d := range mat {
				mat[d] = make([]int, l.C*l.H*l.W)
				for i := range mat[d] {
					mat[d][i] = rng.Intn(31) - 15
				}
			}
			w.FC[l.Name] = mat
		}
	}

	ctl := NewController(prog, core.IdealOptions(nil))
	if err := ctl.LoadWeights(w); err != nil {
		t.Fatal(err)
	}

	samples := make([]*tensor.Int, 3)
	for i := range samples {
		samples[i] = tensor.NewInt(1, 16, 16)
		for j := range samples[i].Data {
			samples[i].Data[j] = int32(rng.Intn(256))
		}
	}
	if err := ctl.Calibrate(samples...); err != nil {
		t.Fatal(err)
	}

	for i, s := range samples {
		got, err := ctl.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		want := integerForward(t, n, w, ctl.shifts, s)
		if len(got) != len(want) {
			t.Fatalf("sample %d: output len %d, want %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("sample %d output[%d]: analog %d, integer %d", i, k, got[k], want[k])
			}
		}
	}
}

func TestControllerErrors(t *testing.T) {
	n := lenet(t)
	prog, err := Compile(n, params.DefaultTimely(8), true)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(prog, core.IdealOptions(nil))
	if _, err := ctl.Run(tensor.NewInt(1, 16, 16)); err == nil {
		t.Errorf("Run before LoadWeights accepted")
	}
	if err := ctl.Calibrate(tensor.NewInt(1, 16, 16)); err == nil {
		t.Errorf("Calibrate before LoadWeights accepted")
	}
	if err := ctl.LoadWeights(Weights{}); err == nil {
		t.Errorf("LoadWeights with missing weights accepted")
	}
}

// integerForward replays the controller's quantised schedule with exact
// integer arithmetic.
func integerForward(t *testing.T, n *model.Network, w Weights, shifts map[string]int, in *tensor.Int) []int {
	t.Helper()
	cur := in
	var vec []int
	weighted := n.WeightedLayers()
	lastName := weighted[len(weighted)-1].Name
	for _, l := range n.Layers {
		switch l.Kind {
		case model.KindConv:
			out := tensor.Conv2D(cur, w.Conv[l.Name], nil, l.S, l.Pad)
			if l.Name == lastName {
				vec = make([]int, len(out.Data))
				for i, v := range out.Data {
					vec[i] = int(v)
				}
				cur = nil
				break
			}
			sh := shifts[l.Name]
			for i, v := range out.Data {
				out.Data[i] = int32(requantCode(int(v), sh))
			}
			cur = out
		case model.KindFC:
			var inputs []int
			if cur != nil {
				inputs = make([]int, len(cur.Data))
				for i, v := range cur.Data {
					inputs[i] = int(v)
				}
				cur = nil
			} else {
				inputs = vec
			}
			psums := make([]int, l.D)
			for d, row := range w.FC[l.Name] {
				s := 0
				for i, x := range inputs {
					s += x * row[i]
				}
				psums[d] = s
			}
			if l.Name == lastName {
				vec = psums
				break
			}
			sh := shifts[l.Name]
			for i := range psums {
				psums[i] = requantCode(psums[i], sh)
			}
			vec = psums
		case model.KindMaxPool:
			cur = tensor.MaxPool2D(cur, l.Z, l.S)
		case model.KindAvgPool:
			cur = tensor.AvgPool2D(cur, l.Z, l.S)
		}
	}
	return vec
}

func TestOpCodeStrings(t *testing.T) {
	for _, op := range []OpCode{OpWriteWeights, OpConfigInputPath, OpConfigPooling, OpSetScale} {
		if op.String() == "" || strings.HasPrefix(op.String(), "op(") {
			t.Errorf("OpCode %d has no name", int(op))
		}
	}
}
