package experiments

import (
	"context"
	"repro/internal/accel"
	"repro/internal/report"
)

// Table4Row is one accelerator's peak comparison row.
type Table4Row struct {
	Name            string
	OpBits          int
	EfficiencyTOPsW float64
	DensityTOPsMM2  float64
	// EffImprovement / DenImprovement are TIMELY's factors over this row
	// at matched precision (0 for the TIMELY rows themselves).
	EffImprovement, DenImprovement float64
}

// Table4 reproduces Table IV: peak energy efficiency and computational
// density of PRIME/ISAAC/PipeLayer/AtomLayer (reported) against TIMELY
// (computed from Table II first principles), with improvement factors at
// matched precision (8-bit vs PRIME, 16-bit vs the rest).
func Table4() []Table4Row {
	t8 := accel.ComputeTimelyPeak(8)
	t16 := accel.ComputeTimelyPeak(16)
	var rows []Table4Row
	for _, name := range []string{"PRIME", "ISAAC", "PipeLayer", "AtomLayer"} {
		p, ok := accel.ReportedPeak(name)
		if !ok {
			continue
		}
		ref := t16
		if p.OpBits == 8 {
			ref = t8
		}
		rows = append(rows, Table4Row{
			Name:            p.Name,
			OpBits:          p.OpBits,
			EfficiencyTOPsW: p.EfficiencyTOPsW,
			DensityTOPsMM2:  p.DensityTOPsMM2,
			EffImprovement:  ref.EfficiencyTOPsW / p.EfficiencyTOPsW,
			DenImprovement:  ref.DensityTOPsMM2 / p.DensityTOPsMM2,
		})
	}
	rows = append(rows,
		Table4Row{Name: "TIMELY", OpBits: 8,
			EfficiencyTOPsW: t8.EfficiencyTOPsW, DensityTOPsMM2: t8.DensityTOPsMM2},
		Table4Row{Name: "TIMELY", OpBits: 16,
			EfficiencyTOPsW: t16.EfficiencyTOPsW, DensityTOPsMM2: t16.DensityTOPsMM2},
	)
	return rows
}

func runTable4(context.Context) ([]*report.Table, error) {
	t := report.New("Table IV: peak performance comparison",
		"accelerator", "MAC bits", "TOPs/W", "TIMELY eff. gain", "TOPs/(s*mm^2)", "TIMELY dens. gain")
	for _, r := range Table4() {
		eff, den := "-", "-"
		if r.EffImprovement > 0 {
			eff = report.X(r.EffImprovement)
			den = report.X(r.DenImprovement)
		}
		t.AddF(r.Name, r.OpBits, r.EfficiencyTOPsW, eff, r.DensityTOPsMM2, den)
	}
	return []*report.Table{t}, nil
}

func init() {
	register(Experiment{
		ID:          "table4",
		Paper:       "Table IV",
		Description: "peak energy efficiency and computational density",
		Run:         runTable4,
	})
}
