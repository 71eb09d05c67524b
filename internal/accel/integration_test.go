package accel

import (
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// countSingleInstance counts layer on the analytic model mapped the way the
// functional executor maps it: differential signed weights use 2× the
// sub-ranged columns, and one instance (no O2IR vertical copies) slides
// over every output position.
func countSingleInstance(l model.Layer, led *energy.Ledger) {
	cfg := params.DefaultTimely(8)
	p := mapping.PlaceO2IRScheme(l, cfg, 2*cfg.ColumnsPerWeight())
	p.VerticalCopies = 1
	p.CyclesPerImage = int64(l.E) * int64(l.F) * int64(cfg.InputPasses())
	(&Timely{Cfg: cfg}).CountLayer(p, led)
}

// TestFunctionalMatchesAnalyticCounts cross-validates the two simulators:
// the functional sub-chip executor (package core, differential signed
// scheme, no O2IR duplication) and the analytic TIMELY model configured the
// same way must count identical operation totals for the same layer.
func TestFunctionalMatchesAnalyticCounts(t *testing.T) {
	const (
		c, h, w = 2, 5, 5
		d, k    = 3, 3
		stride  = 1
		pad     = 0
	)
	// Functional run.
	rng := stats.NewRNG(42)
	in := tensor.NewInt(c, h, w)
	for i := range in.Data {
		in.Data[i] = int32(rng.Intn(256))
	}
	f := tensor.NewFilter(d, c, k, k)
	for i := range f.Data {
		f.Data[i] = int32(rng.Intn(255)) - 127
	}
	funcLed := energy.NewLedger(nil)
	if _, err := core.RunConv(core.IdealOptions(funcLed), in, f, stride, pad, true); err != nil {
		t.Fatal(err)
	}

	// Analytic run on the same layer with the matching scheme.
	layer := model.NewBuilder("t", c, h, w).Conv("conv", d, k, stride, pad).Build().Layers[0]
	anaLed := energy.NewLedger(nil)
	countSingleInstance(layer, anaLed)

	for _, comp := range []energy.Component{
		energy.L1Read, energy.L1Write, energy.DTCConv, energy.TDCConv,
		energy.ChargingOp, energy.IAdderOp, energy.PSubBufOp,
		energy.XSubBufOp, energy.CrossbarOp, energy.ReLUOp, energy.ShiftAddOp,
	} {
		if got, want := funcLed.Count(comp), anaLed.Count(comp); got != want {
			t.Errorf("%v count: functional %v, analytic %v", comp, got, want)
		}
	}
}

// TestFunctionalMatchesAnalyticMultiColumn repeats the cross-validation on a
// layer wide and deep enough to span several grid rows and columns,
// exercising the X-subBuf propagation and P-subBuf accounting.
func TestFunctionalMatchesAnalyticMultiColumn(t *testing.T) {
	const (
		c, h, w = 40, 4, 4 // rows = 40·9 = 360 > 256: two grid rows
		d, k    = 80, 3    // cols = 80·4 = 320 > 256: two grid columns
		stride  = 1
		pad     = 1
	)
	rng := stats.NewRNG(7)
	in := tensor.NewInt(c, h, w)
	for i := range in.Data {
		in.Data[i] = int32(rng.Intn(256))
	}
	f := tensor.NewFilter(d, c, k, k)
	for i := range f.Data {
		f.Data[i] = int32(rng.Intn(255)) - 127
	}
	funcLed := energy.NewLedger(nil)
	if _, err := core.RunConv(core.IdealOptions(funcLed), in, f, stride, pad, false); err != nil {
		t.Fatal(err)
	}
	layer := model.NewBuilder("t", c, h, w).Conv("conv", d, k, stride, pad).Build().Layers[0]
	anaLed := energy.NewLedger(nil)
	countSingleInstance(layer, anaLed)
	for _, comp := range []energy.Component{
		energy.L1Read, energy.DTCConv, energy.TDCConv, energy.ChargingOp,
		energy.IAdderOp, energy.PSubBufOp, energy.XSubBufOp, energy.CrossbarOp,
	} {
		if got, want := funcLed.Count(comp), anaLed.Count(comp); got != want {
			t.Errorf("%v count: functional %v, analytic %v", comp, got, want)
		}
	}
}
