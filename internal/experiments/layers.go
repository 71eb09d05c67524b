package experiments

import (
	"context"
	"repro/internal/accel"
	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/report"
)

// LayerRow is one VGG-D layer's placement, energy and cycle profile on
// TIMELY — the working table behind the Fig. 8/9 aggregates.
type LayerRow struct {
	Layer string
	// Rows / Copies / SubChips summarise the O2IR placement.
	Rows, Copies, SubChips int
	// Cycles is the per-instance pipeline-cycle count per image.
	Cycles int64
	// EnergyFJ is the layer's energy contribution per image.
	EnergyFJ float64
	// InputReads is the L1 read count (the Table V quantity).
	InputReads float64
}

// LayerProfile evaluates one network layer by layer on 8-bit TIMELY.
func LayerProfile(name string) ([]LayerRow, error) {
	n, err := network(name)
	if err != nil {
		return nil, err
	}
	t := accel.NewTimely(8, 1)
	var rows []LayerRow
	for _, p := range mapping.Lower(n, t.Cfg).Placements {
		led := energy.NewLedger(t.Units())
		t.CountLayer(p, led)
		rows = append(rows, LayerRow{
			Layer:      p.Layer.Name,
			Rows:       p.Rows,
			Copies:     p.VerticalCopies,
			SubChips:   p.SubChips,
			Cycles:     p.CyclesPerImage,
			EnergyFJ:   led.Total(),
			InputReads: led.CountClass(energy.L1Read, energy.ClassInput),
		})
	}
	return rows, nil
}

func runLayers(context.Context) ([]*report.Table, error) {
	rows, err := LayerProfile("VGG-D")
	if err != nil {
		return nil, err
	}
	t := report.New("Per-layer TIMELY profile, VGG-D (8-bit, one instance)",
		"layer", "dot rows", "O2IR copies", "sub-chips", "cycles/img", "energy", "L1 input reads")
	var totE float64
	for _, r := range rows {
		t.AddF(r.Layer, r.Rows, r.Copies, r.SubChips, r.Cycles,
			report.MJ(r.EnergyFJ), report.Millions(r.InputReads))
		totE += r.EnergyFJ
	}
	t.Add("total", "", "", "", "", report.MJ(totE), "")
	return []*report.Table{t}, nil
}

func init() {
	register(Experiment{
		ID:          "layers",
		Paper:       "per-layer detail",
		Description: "VGG-D layer-by-layer placement, cycles and energy on TIMELY",
		Run:         runLayers,
	})
}
