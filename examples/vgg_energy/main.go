// vgg_energy reproduces the paper's VGG-D energy deep-dive through the
// public sim facade: it evaluates one ImageNet-scale inference on TIMELY
// and on the PRIME baseline, printing the per-component ledgers, the
// data-type movement breakdown of Fig. 9(d), and the headline efficiency
// ratio — all from the typed EvalResult.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/report"
	"repro/sim"
)

func evaluate(ctx context.Context, backend string) *sim.EvalResult {
	res, err := sim.Evaluate(ctx, &sim.EvalRequest{Backend: backend, Network: "VGG-D"})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	ctx := context.Background()
	t8 := evaluate(ctx, "timely")
	pr := evaluate(ctx, "prime")

	// Index PRIME's breakdown by component so the table pairs both designs.
	primeBy := map[string]sim.ComponentEnergy{}
	for _, c := range pr.EnergyBreakdown {
		primeBy[c.Component] = c
	}
	seen := map[string]bool{}
	tab := report.New("Per-component energy (one VGG-D inference)",
		"component", "TIMELY ops", "TIMELY energy", "PRIME ops", "PRIME energy")
	add := func(name string, t, p sim.ComponentEnergy) {
		cell := func(c sim.ComponentEnergy) (string, string) {
			if c.Ops == 0 {
				return "", ""
			}
			return fmt.Sprintf("%.3g", c.Ops), fmt.Sprintf("%.3f mJ", c.MilliJoules)
		}
		to, te := cell(t)
		po, pe := cell(p)
		tab.Add(name, to, te, po, pe)
	}
	for _, c := range t8.EnergyBreakdown {
		add(c.Component, c, primeBy[c.Component])
		seen[c.Component] = true
	}
	for _, c := range pr.EnergyBreakdown {
		if !seen[c.Component] {
			add(c.Component, sim.ComponentEnergy{}, c)
		}
	}
	tab.Add("TOTAL", "", fmt.Sprintf("%.3f mJ", t8.EnergyMJPerImage),
		"", fmt.Sprintf("%.3f mJ", pr.EnergyMJPerImage))
	if err := tab.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	primeMove := map[string]float64{}
	for _, c := range pr.MovementByClass {
		primeMove[c.Class] = c.MilliJoules
	}
	d := report.New("\nData-movement energy by data type (Fig. 9(d))",
		"data type", "TIMELY", "PRIME", "reduction")
	for _, c := range t8.MovementByClass {
		pm := primeMove[c.Class]
		d.Add(c.Class, fmt.Sprintf("%.3f mJ", c.MilliJoules), fmt.Sprintf("%.3f mJ", pm),
			report.Pct(1-c.MilliJoules/pm))
	}
	if err := d.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nEnergy efficiency: TIMELY %.2f TOPs/W vs PRIME %.2f TOPs/W (%.1fx, paper: 15.6x)\n",
		t8.TOPsPerWatt, pr.TOPsPerWatt, pr.EnergyMJPerImage/t8.EnergyMJPerImage)
}
