package experiments

import (
	"context"
	"repro/internal/accel"
	"repro/internal/report"
)

// Fig1cPoint is one accelerator in the efficiency/density landscape.
type Fig1cPoint struct {
	Name            string
	OpBits          int
	EfficiencyTOPsW float64
	DensityTOPsMM2  float64
	PIM             bool
	Computed        bool // true for TIMELY (first principles), false for reported
}

// Fig1c reproduces Fig. 1(c): the energy-efficiency vs computational-density
// landscape of Eyeriss, PRIME, ISAAC, PipeLayer and TIMELY (both precisions).
func Fig1c() []Fig1cPoint {
	var pts []Fig1cPoint
	for _, p := range accel.ReportedPeaks() {
		pts = append(pts, Fig1cPoint{
			Name: p.Name, OpBits: p.OpBits,
			EfficiencyTOPsW: p.EfficiencyTOPsW, DensityTOPsMM2: p.DensityTOPsMM2,
			PIM: p.PIM,
		})
	}
	for _, bits := range []int{8, 16} {
		tp := accel.ComputeTimelyPeak(bits)
		pts = append(pts, Fig1cPoint{
			Name: "TIMELY", OpBits: bits,
			EfficiencyTOPsW: tp.EfficiencyTOPsW, DensityTOPsMM2: tp.DensityTOPsMM2,
			PIM: true, Computed: true,
		})
	}
	return pts
}

func runFig1c(context.Context) ([]*report.Table, error) {
	t := report.New("Fig. 1(c): efficiency vs computational density (peak)",
		"accelerator", "MAC bits", "TOPs/W", "TOPs/(s*mm^2)", "PIM", "source")
	for _, p := range Fig1c() {
		src := "reported"
		if p.Computed {
			src = "computed"
		}
		pim := "no"
		if p.PIM {
			pim = "yes"
		}
		t.AddF(p.Name, p.OpBits, p.EfficiencyTOPsW, p.DensityTOPsMM2, pim, src)
	}
	return []*report.Table{t}, nil
}

func init() {
	register(Experiment{
		ID:          "fig1c",
		Paper:       "Fig. 1(c)",
		Description: "energy efficiency vs computational density across accelerators",
		Run:         runFig1c,
	})
}
