package experiments

import (
	"context"

	"repro/internal/energy"
	"repro/internal/params"
	"repro/internal/report"
)

// Fig9 bundles the effectiveness analysis of TIMELY's innovations on VGG-D
// vs PRIME (Fig. 9(a-e)).
type Fig9 struct {
	// PrimeTotalFJ / TimelyTotalFJ are per-image energies.
	PrimeTotalFJ, TimelyTotalFJ float64
	// SavingALBO2IR / SavingTDI split the total saving (Fig. 9(a)): TDI's
	// share is the increment of swapping DAC/ADC for DTC/TDC at TIMELY's
	// (already ALB/O2IR-reduced) conversion counts; the rest is ALB+O2IR.
	SavingALBO2IR, SavingTDI float64
	// Interface energies (Fig. 9(b)).
	PrimeInterfaceFJ, TimelyInterfaceFJ float64
	// Memory energy by level (Fig. 9(c)).
	PrimeByLevel, TimelyByLevel map[energy.Level]float64
	// Movement energy by data type (Fig. 9(d)) and reductions.
	PrimeByClass, TimelyByClass map[energy.Class]float64
}

// RunFig9 evaluates both accelerators on VGG-D and derives every panel.
func RunFig9(ctx context.Context) (*Fig9, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pr, err := evalPrime(1, "VGG-D")
	if err != nil {
		return nil, err
	}
	t8, err := evalTimely(8, 1, "VGG-D")
	if err != nil {
		return nil, err
	}
	f := &Fig9{
		PrimeTotalFJ:      pr.Ledger.Total(),
		TimelyTotalFJ:     t8.Ledger.Total(),
		PrimeInterfaceFJ:  pr.Ledger.InterfaceEnergy(),
		TimelyInterfaceFJ: t8.Ledger.InterfaceEnergy(),
		PrimeByLevel:      map[energy.Level]float64{},
		TimelyByLevel:     map[energy.Level]float64{},
		PrimeByClass:      map[energy.Class]float64{},
		TimelyByClass:     map[energy.Class]float64{},
	}
	for _, lv := range []energy.Level{energy.LevelALB, energy.LevelL1, energy.LevelL2, energy.LevelL3} {
		f.PrimeByLevel[lv] = pr.Ledger.ByLevel(lv)
		f.TimelyByLevel[lv] = t8.Ledger.ByLevel(lv)
	}
	for _, cl := range []energy.Class{energy.ClassInput, energy.ClassPsum, energy.ClassOutput} {
		f.PrimeByClass[cl] = pr.Ledger.MovementByClass(cl)
		f.TimelyByClass[cl] = t8.Ledger.MovementByClass(cl)
	}
	// Fig. 9(a) decomposition: price TIMELY's conversion counts at
	// voltage-domain unit energies to isolate TDI's increment.
	tdcCount := t8.Ledger.Count(energy.TDCConv)
	dtcCount := t8.Ledger.Count(energy.DTCConv)
	timelyWithDACADC := f.TimelyTotalFJ - f.TimelyInterfaceFJ +
		dtcCount*params.EnergyDAC + tdcCount*params.EnergyADC
	totalSaving := f.PrimeTotalFJ - f.TimelyTotalFJ
	f.SavingTDI = (timelyWithDACADC - f.TimelyTotalFJ) / totalSaving
	f.SavingALBO2IR = 1 - f.SavingTDI
	return f, nil
}

func runFig9(ctx context.Context) ([]*report.Table, error) {
	f, err := RunFig9(ctx)
	if err != nil {
		return nil, err
	}
	a := report.New("Fig. 9(a): breakdown of TIMELY's energy savings over PRIME (VGG-D)",
		"feature", "share of savings")
	a.Add("ALB + O2IR", report.Pct(f.SavingALBO2IR))
	a.Add("TDI", report.Pct(f.SavingTDI))

	b := report.New("Fig. 9(b): interfacing energy", "design", "energy", "reduction")
	b.Add("PRIME (DAC+ADC)", report.MJ(f.PrimeInterfaceFJ), "-")
	b.Add("TIMELY (DTC+TDC)", report.MJ(f.TimelyInterfaceFJ),
		report.Pct(1-f.TimelyInterfaceFJ/f.PrimeInterfaceFJ))

	c := report.New("Fig. 9(c): memory-access energy by level",
		"level", "PRIME", "TIMELY")
	var pm, tm float64
	for _, lv := range []energy.Level{energy.LevelALB, energy.LevelL1, energy.LevelL2, energy.LevelL3} {
		c.Add(lv.String(), report.MJ(f.PrimeByLevel[lv]), report.MJ(f.TimelyByLevel[lv]))
		pm += f.PrimeByLevel[lv]
		tm += f.TimelyByLevel[lv]
	}
	c.Add("total", report.MJ(pm), report.MJ(tm))
	c.Add("reduction", "-", report.Pct(1-tm/pm))

	d := report.New("Fig. 9(d): data-movement energy by data type",
		"data type", "PRIME", "TIMELY", "reduction")
	for _, cl := range []energy.Class{energy.ClassPsum, energy.ClassInput, energy.ClassOutput} {
		p, t := f.PrimeByClass[cl], f.TimelyByClass[cl]
		d.Add(cl.String(), report.MJ(p), report.MJ(t), report.Pct(1-t/p))
	}

	e := report.New("Fig. 9(e): contributing factors", "energy reduction of", "contributors")
	e.Add("psum accesses", "P-subBufs")
	e.Add("input reads", "X-subBufs & O2IR (fetch once, shift locally)")
	e.Add("output writes", "no L2 level (146.7x/6.9x costlier reads/writes removed)")
	return []*report.Table{a, b, c, d, e}, nil
}

func init() {
	register(Experiment{
		ID:          "fig9",
		Paper:       "Fig. 9(a-e)",
		Description: "effectiveness of ALB, TDI and O2IR on VGG-D vs PRIME",
		Run:         runFig9,
	})
}
