package compiler

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/params"
)

func compileSpec(t *testing.T, s model.Spec) *model.Network {
	t.Helper()
	n, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// stage is the command run of one weighted layer on one sub-chip: write,
// input path from src ("" = chip input), scale, then one pooling command
// per kernel in pools.
func stage(layer string, sc int, src string, pools ...int) []Command {
	cmds := []Command{
		{Op: OpWriteWeights, Layer: layer, SubChip: sc},
		{Op: OpConfigInputPath, Layer: layer, SubChip: sc, Source: src},
		{Op: OpSetScale, Layer: layer, SubChip: sc},
	}
	for _, z := range pools {
		cmds = append(cmds, Command{Op: OpConfigPooling, Layer: layer, SubChip: sc, Arg: z})
	}
	return cmds
}

func TestCompile(t *testing.T) {
	cases := []struct {
		spec     model.Spec
		subChips int
		want     [][]Command
	}{{
		// LeNet-style network on 16x16 inputs.
		spec: model.Spec{
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
		},
		subChips: 4,
		want: [][]Command{
			stage("conv1", 0, ""),
			stage("conv2", 1, "conv1", 2),
			stage("fc1", 2, "conv2", 2),
			stage("fc2", 3, "fc1"),
		},
	}, {
		// The grating classifier of examples/cnn_pipeline: the 10-command
		// stream the example prints.
		spec: model.Spec{
			Name:  "gratings",
			Input: model.Dims{C: 1, H: 12, W: 12},
			Layers: []model.LayerSpec{
				{Name: "features", Kind: "conv", Filters: 8, Kernel: 3, Pad: 1},
				{Kind: "maxpool", Kernel: 2, Stride: 2},
				{Name: "hidden", Kind: "fc", Units: 32},
				{Name: "logits", Kind: "fc", Units: 4},
			},
		},
		subChips: 3,
		want: [][]Command{
			stage("features", 0, ""),
			stage("hidden", 1, "features", 2),
			stage("logits", 2, "hidden"),
		},
	}}
	for _, tc := range cases {
		t.Run(tc.spec.Name, func(t *testing.T) {
			prog := Compile(compileSpec(t, tc.spec), params.DefaultTimely(8))
			if prog.SubChips != tc.subChips {
				t.Errorf("program uses %d sub-chips, want %d (one per weighted layer)", prog.SubChips, tc.subChips)
			}
			var want []Command
			for _, s := range tc.want {
				want = append(want, s...)
			}
			if !reflect.DeepEqual(prog.Commands, want) {
				t.Errorf("commands:\n got %v\nwant %v", prog.Commands, want)
			}
		})
	}
}

// TestCompileHugeLayer: a layer too large for one sub-chip is written at
// its plan placement's first sub-chip, and so is the layer after it.
func TestCompileHugeLayer(t *testing.T) {
	n := compileSpec(t, model.Spec{Name: "big", Input: model.Dims{C: 512, H: 14, W: 14},
		Layers: []model.LayerSpec{
			{Name: "huge", Kind: "conv", Filters: 512, Kernel: 3, Pad: 1}, // rows 4608 > 4096
			{Kind: "maxpool", Kernel: 14, Stride: 14},
			{Name: "tail", Kind: "fc", Units: 4},
		},
	})
	cfg := params.DefaultTimely(8)
	plan := mapping.Lower(n, cfg)
	if plan.Placements[0].SubChips < 2 {
		t.Fatalf("huge layer needs %d sub-chips, want several", plan.Placements[0].SubChips)
	}
	prog := Compile(n, cfg)
	if prog.SubChips != plan.Need {
		t.Errorf("program uses %d sub-chips, plan needs %d", prog.SubChips, plan.Need)
	}
	want := append(stage("huge", plan.First[0], ""), stage("tail", plan.First[1], "huge", 14)...)
	if !reflect.DeepEqual(prog.Commands, want) {
		t.Errorf("commands:\n got %v\nwant %v", prog.Commands, want)
	}
}

func TestOpCodeStrings(t *testing.T) {
	for _, op := range []OpCode{OpWriteWeights, OpConfigInputPath, OpConfigPooling, OpSetScale} {
		if op.String() == "" || strings.HasPrefix(op.String(), "op(") {
			t.Errorf("OpCode %d has no name", int(op))
		}
	}
}
