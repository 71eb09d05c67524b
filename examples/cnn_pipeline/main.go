// cnn_pipeline walks the §IV-F software-hardware interface end to end:
// a declarative network spec goes through model.Spec.Compile (the NN
// parser), the compiler lowers it to sub-chip commands (weight mapping +
// input-path configuration), and the trained CNN is then programmed onto
// functional sub-chips and classifies synthetic oriented-grating images
// through the analog datapath — the same executor (workload.AnalogCNN)
// every study and the sim functional backend run. The public sim facade's
// functional backend then evaluates the same workload recipe.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/sim"
)

// spec is the grating classifier: 1x12x12 -> conv -> pool -> fc -> fc.
var spec = model.Spec{
	Name:  "gratings",
	Input: model.Dims{C: 1, H: 12, W: 12},
	Layers: []model.LayerSpec{
		{Name: "features", Kind: "conv", Filters: 8, Kernel: 3, Pad: 1},
		{Kind: "maxpool", Kernel: 2, Stride: 2},
		{Name: "hidden", Kind: "fc", Units: 32},
		{Name: "logits", Kind: "fc", Units: 4},
	},
}

func main() {
	// Stage 1 (§IV-F): the NN parser (Spec.Compile) extracts model
	// parameters.
	net, err := spec.Compile()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed %q: %d layers, %d weighted, %d params\n",
		net.Name, len(net.Layers), len(net.WeightedLayers()), net.TotalParams())

	// Stage 2: the compiler generates the execution commands.
	prog := compiler.Compile(net, params.DefaultTimely(8))
	fmt.Printf("compiled onto %d sub-chips, %d commands:\n", prog.SubChips, len(prog.Commands))
	for _, c := range prog.Commands {
		src := c.Source
		if c.Op == compiler.OpConfigInputPath && src == "" {
			src = "<chip input>"
		}
		fmt.Printf("  %-18s layer=%-9s sub-chip=%d %s\n", c.Op, c.Layer, c.SubChip, src)
	}

	// Train the same topology with the workload recipe: fixed random conv
	// features, SGD-trained two-layer head, 8-bit quantisation.
	rng := stats.NewRNG(5)
	ds := workload.SyntheticImages(rng, 600, 12, 4, 0.05)
	train, test := ds.Split(0.8)
	cnn := workload.NewCNN(rng, 8, 7)
	if _, err := cnn.Train(rng, train, 32, 25, 0.05); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntrained reference accuracy (integer path): %.1f%%\n",
		100*cnn.AccuracyInt(test))

	// Stage 3: write the trained weights onto functional sub-chips (one
	// for the conv bank, one per head layer) and classify the test images
	// through the analog datapath.
	analog, err := cnn.MapAnalog(core.IdealOptions(nil), 0)
	if err != nil {
		log.Fatal(err)
	}
	acc, err := analog.Accuracy(test, nil)
	analog.Release()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analog inference on mapped sub-chips:       %.1f%% accuracy (%d images)\n",
		100*acc, test.Len())

	// The sim facade's functional backend trains the identical recipe
	// (same seed 5, memoized with the experiment suite) and maps it onto
	// fault-free crossbars through the same executor.
	res, err := sim.Evaluate(context.Background(),
		&sim.EvalRequest{Backend: "functional", Network: "cnn", Trials: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sim facade functional backend (cnn):        int %.1f%%, analog %.1f%% (%d draws)\n",
		100*res.Accuracy.Int, 100*res.Accuracy.Analog, res.Accuracy.Trials)
}
