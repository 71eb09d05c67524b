package experiments

import (
	"context"

	"repro/internal/accel"
	"repro/internal/params"
	"repro/internal/report"
)

// Fig11Result is the ALB+O2IR-in-PRIME generalization experiment.
type Fig11Result struct {
	// BaseFJ / RetrofitFJ are intra-bank data-movement energies on VGG-D.
	BaseFJ, RetrofitFJ float64
	// Reduction is 1 − Retrofit/Base (paper: 68 %).
	Reduction float64
}

// RunFig11 applies TIMELY's ALB and O2IR principles inside PRIME's FF
// subarrays (Fig. 11(a)) and measures the intra-bank data-movement energy
// reduction on VGG-D (Fig. 11(b)).
func RunFig11(ctx context.Context) (Fig11Result, error) {
	if err := ctx.Err(); err != nil {
		return Fig11Result{}, err
	}
	vgg, err := network("VGG-D")
	if err != nil {
		return Fig11Result{}, err
	}
	base, err := evalPrime(1, "VGG-D")
	if err != nil {
		return Fig11Result{}, err
	}
	retro, err := (&accel.Prime{Cfg: params.DefaultPrime(), ALBO2IR: true}).Evaluate(vgg)
	if err != nil {
		return Fig11Result{}, err
	}
	r := Fig11Result{
		BaseFJ:     accel.IntraBankEnergy(base.Ledger),
		RetrofitFJ: accel.IntraBankEnergy(retro.Ledger),
	}
	r.Reduction = 1 - r.RetrofitFJ/r.BaseFJ
	return r, nil
}

func runFig11(ctx context.Context) ([]*report.Table, error) {
	r, err := RunFig11(ctx)
	if err != nil {
		return nil, err
	}
	t := report.New("Fig. 11: ALB+O2IR applied to PRIME's FF subarrays (VGG-D)",
		"design", "intra-bank movement energy", "reduction")
	t.Add("PRIME", report.MJ(r.BaseFJ), "-")
	t.Add("PRIME + ALB + O2IR", report.MJ(r.RetrofitFJ), report.Pct(r.Reduction))
	return []*report.Table{t}, nil
}

func init() {
	register(Experiment{
		ID:          "fig11",
		Paper:       "Fig. 11",
		Description: "generalizing ALB+O2IR into PRIME",
		Run:         runFig11,
	})
}
