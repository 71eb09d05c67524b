package experiments

import (
	"context"
	"repro/internal/params"
	"repro/internal/report"
)

// Fig5Row compares one per-datum cost between existing R2PIMs and TIMELY
// (Fig. 5(c)).
type Fig5Row struct {
	Quantity string
	// ExistingFJ and TimelyFJ are the per-datum energies in fJ.
	ExistingFJ, TimelyFJ float64
	// Reduction is Existing/TIMELY.
	Reduction float64
}

// Fig5c computes the per-input and per-Psum movement and interface energies
// of Fig. 5(c): existing designs pay the full buffer/interface cost per
// crossbar, TIMELY amortises it over the sub-chip's crossbar row/column
// (NCB ≈ GridCols for inputs, GridRows for Psums) and pays only a local ALB
// access per hop.
func Fig5c() []Fig5Row {
	eR2 := params.EnergyL1RefRead
	nIn := float64(params.GridCols) // crossbars sharing one input row
	nPs := float64(params.GridRows) // crossbars sharing one psum column
	rows := []Fig5Row{
		{
			Quantity:   "data access / input",
			ExistingFJ: eR2,
			TimelyFJ:   params.EnergyXSubBuf + eR2/nIn,
		},
		{
			Quantity:   "data access / psum",
			ExistingFJ: 2 * eR2,
			TimelyFJ:   params.EnergyPSubBuf + 2*eR2/nPs,
		},
		{
			Quantity:   "interfacing / input",
			ExistingFJ: params.EnergyDAC,
			TimelyFJ:   params.EnergyDTC / nIn,
		},
		{
			Quantity:   "interfacing / psum",
			ExistingFJ: params.EnergyADC,
			TimelyFJ:   params.EnergyTDC / nPs,
		},
	}
	for i := range rows {
		rows[i].Reduction = rows[i].ExistingFJ / rows[i].TimelyFJ
	}
	return rows
}

// Fig5d returns the normalized unit energies of Fig. 5(d).
func Fig5d() []Share {
	return []Share{
		{"eR2 (buffer access)", 1},
		{"eP (P-subBuf)", params.EnergyPSubBuf / params.EnergyL1RefRead},
		{"eX (X-subBuf)", params.EnergyXSubBuf / params.EnergyL1RefRead},
		{"eDAC", 1},
		{"eDTC/eDAC", params.EnergyDTC / params.EnergyDAC},
		{"eADC", 1},
		{"eTDC/eADC", params.EnergyTDC / params.EnergyADC},
	}
}

func runFig5(context.Context) ([]*report.Table, error) {
	t := report.New("Fig. 5(c): per-datum energy, existing R2PIM vs TIMELY",
		"quantity", "existing (fJ)", "TIMELY (fJ)", "reduction")
	for _, r := range Fig5c() {
		t.AddF(r.Quantity, r.ExistingFJ, r.TimelyFJ, report.X(r.Reduction))
	}
	d := report.New("Fig. 5(d): normalized unit energies", "unit", "normalized")
	for _, s := range Fig5d() {
		d.AddF(s.Name, s.Fraction)
	}
	return []*report.Table{t, d}, nil
}

func init() {
	register(Experiment{
		ID:          "fig5",
		Paper:       "Fig. 5(c,d)",
		Description: "per-input/per-psum energy and normalized unit energies",
		Run:         runFig5,
	})
}
