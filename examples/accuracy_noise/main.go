// accuracy_noise reproduces the §VI-B accuracy methodology through the
// public sim facade's functional backend: a classifier trained in float,
// quantised onto TIMELY's 8-bit datapath, executed through the functional
// analog pipeline with Monte-Carlo circuit noise (Gaussian X-subBuf/
// P-subBuf/comparator errors, worst-case 12-X-subBuf cascade), and a noise
// sweep to find the cliff the paper's 40 ps design margin guards against.
// The trained workload is memoized per seed, so the sweep trains once.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/sim"
)

func main() {
	ctx := context.Background()

	// Design point: the paper's ε=10 ps per X-subBuf, 12-hop cascade.
	seed := uint64(7)
	res, err := sim.Evaluate(ctx, &sim.EvalRequest{
		Backend: "functional", Network: "mlp", Seed: &seed, Trials: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	acc := res.Accuracy
	fmt.Printf("trained MLP on synthetic clusters: float accuracy %.1f%%\n", 100*acc.Float)
	fmt.Printf("8-bit quantised accuracy (integer reference): %.1f%%\n", 100*acc.Int)
	fmt.Printf("analog accuracy at the design point (%d trials, sampler %s): %.1f%%\n",
		acc.Trials, acc.Sampler, 100*acc.Analog)
	fmt.Printf("cascade error sqrt(12)*eps = %.1f ps vs %.0f ps margin\n\n",
		acc.CascadeErrorPS, acc.MarginPS)

	fmt.Println("noise sweep (per-X-subBuf error, 12-hop cascade):")
	fmt.Println("  eps (ps)   accuracy   sqrt(12)*eps within 40 ps margin?")
	for _, eps := range []float64{0, 10, 50, 100, 200, 400, 800} {
		res, err := sim.Evaluate(ctx, &sim.EvalRequest{
			Backend: "functional", Network: "mlp", Seed: &seed, Trials: 3, NoisePS: &eps,
		})
		if err != nil {
			log.Fatal(err)
		}
		within := "yes"
		if res.Accuracy.CascadeErrorPS > res.Accuracy.MarginPS {
			within = "no"
		}
		fmt.Printf("  %8.0f   %7.1f%%   %s\n", eps, 100*res.Accuracy.Analog, within)
	}
}
