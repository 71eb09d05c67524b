// design_space explores the two architecture trade-offs §V and §VI-D
// discuss, entirely through the public sim facade: the DTC/TDC sharing
// factor γ (throughput vs computational density, via sim.DesignPoint) and
// the sub-chip count χ (area scaling barely moves energy and leaves
// per-chip throughput untouched, via sub_chips evaluations).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/sim"
)

func main() {
	ctx := context.Background()

	fmt.Println("gamma sweep: DTC/TDC sharing vs cycle time, area and peak density")
	fmt.Println("  gamma  cycle(ns)  sub-chip mm^2  peak TOPS/sub-chip  TOPs/(s*mm^2)")
	for _, gamma := range []int{1, 2, 4, 8, 16, 32} {
		d, err := sim.DesignPoint(&sim.EvalRequest{Backend: "timely", Gamma: gamma})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %5d  %9.0f  %13.2f  %18.2f  %13.2f\n",
			d.Gamma, d.CycleNS, d.SubChipAreaMM2, d.PeakTOPSPerSubChip, d.DensityTOPsPerMM2)
	}

	fmt.Println("\nsub-chip scaling (§VI-D): chi sweep on VGG-D energy")
	fmt.Println("  chi   chip mm^2   energy/inference   imgs/s (1 chip)")
	for _, chi := range []int{53, 106, 212} {
		r, err := sim.Evaluate(ctx, &sim.EvalRequest{Backend: "timely", Network: "VGG-D", SubChips: chi})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %3d   %9.1f   %13.3f mJ   %12.0f\n",
			chi, r.AreaMM2, r.EnergyMJPerImage, r.ImagesPerSec)
	}
	fmt.Println("\n(energy is nearly flat in chi; throughput scales with the extra")
	fmt.Println(" duplication room, and per-sub-chip throughput is chi-independent)")
}
