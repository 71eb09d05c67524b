// Custom networks through the declarative spec pipeline: define a network
// that is not in the Table III zoo as pure data, evaluate it inline on
// every analytic backend, register it so sim.Evaluate resolves it by name,
// and export a zoo benchmark's spec as a starting template.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"

	"repro/sim"
)

func main() {
	ctx := context.Background()

	// A small CIFAR-style CNN, spelled as data. The same JSON shape is
	// what `timely evaluate -network @spec.json` reads and what timelyd's
	// POST /v1/networks and inline-spec POST /v1/evaluate accept.
	spec := &sim.NetworkSpec{
		Name:  "cifar-tiny",
		Input: sim.NetworkDims{C: 3, H: 32, W: 32},
		Layers: []sim.NetworkLayer{
			{Name: "conv1", Kind: "conv", Filters: 32, Kernel: 3, Pad: 1},
			{Name: "conv2", Kind: "conv", Filters: 32, Kernel: 3, Pad: 1},
			{Kind: "maxpool", Kernel: 2, Stride: 2},
			{Name: "conv3", Kind: "conv", Filters: 64, Kernel: 3, Pad: 1},
			{Kind: "maxpool", Kernel: 2, Stride: 2},
			{Name: "fc1", Kind: "fc", Units: 128},
			{Name: "fc2", Kind: "fc", Units: 10},
		},
	}

	// Inline evaluation: the spec compiles through the same shape-inference
	// path as the built-in zoo and runs on any analytic backend.
	fmt.Println("cifar-tiny, one chip:")
	fmt.Println("  backend   energy/img      imgs/s    TOPs/W")
	for _, backend := range []string{"timely", "prime", "isaac"} {
		res, err := sim.Evaluate(ctx, &sim.EvalRequest{Backend: backend, Spec: spec})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s %8.5f mJ  %8.0f  %8.2f\n",
			backend, res.EnergyMJPerImage, res.ImagesPerSec, res.TOPsPerWatt)
	}

	// Registration: validate once, then reference by name like a zoo
	// benchmark. The info summarises the compiled network and carries the
	// canonical spec hash the evaluation caches key on.
	info, err := sim.RegisterNetwork(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nregistered %s: %d layers, %.2f MMACs, %.2f Mparams\n  hash %s\n",
		info.Name, info.Layers, float64(info.MACs)/1e6, float64(info.Params)/1e6, info.Hash)

	res, err := sim.Evaluate(ctx, &sim.EvalRequest{Backend: "timely", Network: "cifar-tiny", Chips: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("by name on 2 chips: %.5f mJ/img, %.0f imgs/s, %.1f mm2\n",
		res.EnergyMJPerImage, res.ImagesPerSec, res.AreaMM2)

	// Validation errors are typed: the offending layer and field are named.
	bad := &sim.NetworkSpec{
		Name:  "broken",
		Input: sim.NetworkDims{C: 3, H: 32, W: 32},
		Layers: []sim.NetworkLayer{
			{Name: "huge", Kind: "conv", Filters: 8, Kernel: 64},
		},
	}
	if _, err := sim.Evaluate(ctx, &sim.EvalRequest{Backend: "timely", Spec: bad}); err != nil {
		fmt.Println("\ninvalid spec rejected:", err)
	}

	// Zoo benchmarks export their specs — a ready template for edits.
	tmpl, err := sim.ZooSpec("CNN-1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCNN-1 as a spec template (%d layers):\n", len(tmpl.Layers))
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tmpl); err != nil {
		log.Fatal(err)
	}
}
