package experiments

import (
	"context"
	"repro/internal/accel"
	"repro/internal/energy"
	"repro/internal/report"
)

// Fig4Access holds the Fig. 4(a) access counts of one network (all CONV
// layers) under PRIME-style execution.
type Fig4Access struct {
	Network string
	// Inputs is the L1 input-read count; Psums the psum buffer accesses.
	Inputs, Psums float64
}

// Fig4Breakdown is one accelerator's energy breakdown on VGG-D.
type Fig4Breakdown struct {
	Accelerator string
	// Shares maps category name to fraction of total energy.
	Shares  []Share
	TotalFJ float64
}

// Share is one named fraction.
type Share struct {
	Name     string
	Fraction float64
}

// Fig4a counts the CONV-layer input/psum accesses of VGG-D and ResNet-50
// (Fig. 4(a): "more than 55 million inputs and 15 million Psums").
func Fig4a() []Fig4Access {
	var out []Fig4Access
	for _, name := range []string{"VGG-D", "ResNet-50"} {
		n, err := network(name)
		if err != nil {
			panic(err)
		}
		p := accel.NewPrime(1)
		led := energy.NewLedger(p.Units())
		for _, l := range n.ConvLayers() {
			p.EvaluateLayer(l, led)
		}
		out = append(out, Fig4Access{
			Network: name,
			Inputs:  led.CountClass(energy.L1Read, energy.ClassInput),
			Psums: led.CountClass(energy.L1Write, energy.ClassPsum) +
				led.CountClass(energy.L1Read, energy.ClassPsum),
		})
	}
	return out
}

// Fig4b returns PRIME's VGG-D energy breakdown (Fig. 4(b)).
func Fig4b() (Fig4Breakdown, error) {
	r, err := Eval("prime", 0, 1, "VGG-D")
	if err != nil {
		return Fig4Breakdown{}, err
	}
	tot := r.Ledger.Total()
	return Fig4Breakdown{
		Accelerator: "PRIME",
		TotalFJ:     tot,
		Shares: []Share{
			{"inputs", r.Ledger.MovementByClass(energy.ClassInput) / tot},
			{"psums & outputs", (r.Ledger.MovementByClass(energy.ClassPsum) +
				r.Ledger.MovementByClass(energy.ClassOutput)) / tot},
			{"ADC", r.Ledger.Energy(energy.ADCConv) / tot},
			{"DAC", r.Ledger.Energy(energy.DACConv) / tot},
		},
	}, nil
}

// Fig4c returns ISAAC's VGG-D energy breakdown (Fig. 4(c)).
func Fig4c() (Fig4Breakdown, error) {
	r, err := Eval("isaac", 0, 1, "VGG-D")
	if err != nil {
		return Fig4Breakdown{}, err
	}
	tot := r.Ledger.Total()
	mem := r.Ledger.Energy(energy.EDRAMRead) + r.Ledger.Energy(energy.EDRAMWrite) +
		r.Ledger.Energy(energy.IRRead)
	return Fig4Breakdown{
		Accelerator: "ISAAC",
		TotalFJ:     tot,
		Shares: []Share{
			{"analog (DAC/ADC)", (r.Ledger.InterfaceEnergy() +
				r.Ledger.Energy(energy.CrossbarOp)) / tot},
			{"communication", r.Ledger.ByClass(energy.ClassComm) / tot},
			{"memory", mem / tot},
			{"digital", r.Ledger.ByClass(energy.ClassDigital) / tot},
		},
	}, nil
}

func runFig4(context.Context) ([]*report.Table, error) {
	ta := report.New("Fig. 4(a): # of CONV-layer accesses under PRIME-style execution",
		"network", "inputs", "psum accesses")
	for _, a := range Fig4a() {
		ta.Add(a.Network, report.Millions(a.Inputs), report.Millions(a.Psums))
	}
	tables := []*report.Table{ta}
	for _, f := range []func() (Fig4Breakdown, error){Fig4b, Fig4c} {
		b, err := f()
		if err != nil {
			return nil, err
		}
		t := report.New("Fig. 4: "+b.Accelerator+" energy breakdown on VGG-D (total "+
			report.MJ(b.TotalFJ)+")", "category", "share")
		for _, s := range b.Shares {
			t.Add(s.Name, report.Pct(s.Fraction))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func init() {
	register(Experiment{
		ID:          "fig4",
		Paper:       "Fig. 4(a-c)",
		Description: "access counts and baseline energy breakdowns",
		Run:         runFig4,
	})
}
