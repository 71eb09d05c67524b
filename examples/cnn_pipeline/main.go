// cnn_pipeline walks the §IV-F software-hardware interface end to end:
// a declarative network spec goes through model.Spec.Compile (the NN
// parser), the compiler lowers it to sub-chip commands (weight mapping +
// input-path configuration), and the controller loads the command stream
// onto functional sub-chips and runs inference through the analog datapath —
// classifying synthetic oriented-grating images with a CNN. The same
// workload recipe is then run through the public sim facade's functional
// backend as a cross-check on the compiled program's accuracy.
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
	"repro/internal/tensor"
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
	prog, err := compiler.Compile(net, params.DefaultTimely(8), true)
	if err != nil {
		log.Fatal(err)
	}
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

	// Stage 3: the controller writes the trained weights to the mapped
	// addresses and configures the input paths.
	w := compiler.Weights{
		Conv: map[string]*tensor.Filter{"features": cnn.Filters},
		FC: map[string][][]int{
			"hidden": cnn.Head.Weights[0],
			"logits": cnn.Head.Weights[1],
		},
	}
	ctl := compiler.NewController(prog, core.IdealOptions(nil))
	if err := ctl.LoadWeights(w); err != nil {
		log.Fatal(err)
	}
	if err := ctl.Calibrate(train.X[:16]...); err != nil {
		log.Fatal(err)
	}

	hits := 0
	for i, img := range test.X {
		class, err := ctl.Classify(img)
		if err != nil {
			log.Fatal(err)
		}
		if class == test.Y[i] {
			hits++
		}
	}
	fmt.Printf("analog inference via compiled program:      %.1f%% accuracy (%d images)\n",
		100*float64(hits)/float64(test.Len()), test.Len())

	// Cross-check: the sim facade's functional backend trains the identical
	// recipe (same seed 5, memoized with the experiment suite) and maps it
	// onto fault-free crossbars — the two execution paths must agree on the
	// integer reference and land on comparable analog accuracy.
	res, err := sim.Evaluate(context.Background(),
		&sim.EvalRequest{Backend: "functional", Network: "cnn", Trials: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sim facade functional backend (cnn):        int %.1f%%, analog %.1f%% (%d draws)\n",
		100*res.Accuracy.Int, 100*res.Accuracy.Analog, res.Accuracy.Trials)
}
