package experiments

import (
	"context"
	"repro/internal/area"
	"repro/internal/params"
	"repro/internal/report"
)

// Fig10a returns the ReRAM-array share of chip area per accelerator.
func Fig10a() []Share {
	return []Share{
		{"PRIME", area.ReRAMSharePrime(params.DefaultPrime().Crossbars)},
		{"ISAAC", area.ReRAMShareIsaac(params.DefaultIsaac().Crossbars)},
		{"TIMELY", area.ReRAMShareTimely()},
	}
}

// Fig10b returns TIMELY's sub-chip area breakdown.
func Fig10b() []area.Share { return area.Breakdown() }

func runFig10(context.Context) ([]*report.Table, error) {
	a := report.New("Fig. 10(a): ReRAM crossbar area / chip area", "accelerator", "share")
	for _, s := range Fig10a() {
		a.Add(s.Name, report.Pct(s.Fraction))
	}
	b := report.New("Fig. 10(b): TIMELY area breakdown (sub-chip total "+
		area.FormatMM2(area.SubChipArea())+")", "component", "share")
	for _, s := range Fig10b() {
		b.Add(s.Name, report.Pct(s.Fraction))
	}
	return []*report.Table{a, b}, nil
}

func init() {
	register(Experiment{
		ID:          "fig10",
		Paper:       "Fig. 10(a,b)",
		Description: "ReRAM area share and TIMELY area breakdown",
		Run:         runFig10,
	})
}
