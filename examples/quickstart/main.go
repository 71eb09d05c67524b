// Quickstart for the public sim facade: evaluate an ImageNet-scale network
// on the three analytic backends, read TIMELY's design point, run the
// functional Monte-Carlo accuracy study, and show the JSON request/result
// shapes the timelyd service speaks. Every evaluation is one EvalRequest.
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
	fmt.Println("registered backends:", sim.Backends())

	// One VGG-D inference on each analytic accelerator model.
	fmt.Println("\nVGG-D, one chip:")
	fmt.Println("  backend   energy/img      imgs/s    TOPs/W")
	for _, name := range []string{"timely", "prime", "isaac"} {
		res, err := sim.Evaluate(ctx, &sim.EvalRequest{Backend: name, Network: "VGG-D"})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s %8.3f mJ  %8.0f  %8.2f\n",
			name, res.EnergyMJPerImage, res.ImagesPerSec, res.TOPsPerWatt)
	}

	// TIMELY also exposes its physical design point.
	d, err := sim.DesignPoint(&sim.EvalRequest{Backend: "timely"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTIMELY design point: chi=%d sub-chips, gamma=%d, %.0f ns cycle, %.1f mm^2/chip\n",
		d.SubChipsPerChip, d.Gamma, d.CycleNS, d.ChipAreaMM2)

	// The functional backend runs the Monte-Carlo §VI-B accuracy study on
	// the synthetic workload: noise-aware float training, 8-bit
	// quantisation, execution through the analog datapath with injected
	// circuit noise.
	res, err := sim.Evaluate(ctx, &sim.EvalRequest{Backend: "functional", Network: "mlp", Trials: 3})
	if err != nil {
		log.Fatal(err)
	}
	acc := res.Accuracy
	fmt.Printf("\nfunctional mlp: float %.1f%%, int8 %.1f%%, analog %.1f%% (%d trials, loss %.2f pp)\n",
		100*acc.Float, 100*acc.Int, 100*acc.Analog, acc.Trials, acc.LossPP)

	// A request is also the JSON payload timelyd's POST /v1/evaluate
	// accepts.
	req := &sim.EvalRequest{Backend: "timely", Network: "ResNet-50", Chips: 16}
	out, err := sim.Evaluate(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	out.EnergyBreakdown, out.MovementByClass = nil, nil // keep the demo short
	blob, _ := json.Marshal(req)
	fmt.Printf("\nPOST /v1/evaluate %s ->\n", blob)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}
