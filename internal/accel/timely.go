package accel

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/pipeline"
)

// Timely is the analytic TIMELY model: O2IR-mapped layers on sub-chips with
// ALB-local analog movement, DTC/TDC interfacing, and the two-level pipeline
// of §IV-E.
type Timely struct {
	Cfg params.TimelyConfig
	// LayerInstances, when non-nil, fixes the weight-duplication count per
	// weighted layer instead of the default uniform network replication —
	// the paper reuses the baselines' published duplication ratios for the
	// throughput comparison (§VI-B), so the Fig. 8(b) experiment passes
	// ISAAC's balanced allocation here. Counts are scaled down uniformly if
	// the deployment cannot hold them.
	LayerInstances []int
}

// NewTimely returns the Table II TIMELY at the given precision and chip count.
func NewTimely(bits, chips int) *Timely {
	cfg := params.DefaultTimely(bits)
	cfg.Chips = chips
	return &Timely{Cfg: cfg}
}

// Name implements Accelerator.
func (t *Timely) Name() string { return "TIMELY" }

// Units returns the TIMELY unit-energy table (Table II).
func (t *Timely) Units() map[energy.Component]float64 {
	return map[energy.Component]float64{
		energy.L1Read:      params.EnergyL1Read,
		energy.L1Write:     params.EnergyL1Write,
		energy.DTCConv:     params.EnergyDTC,
		energy.TDCConv:     params.EnergyTDC,
		energy.CrossbarOp:  params.EnergyCrossbar,
		energy.ChargingOp:  params.EnergyCharging,
		energy.XSubBufOp:   params.EnergyXSubBuf,
		energy.PSubBufOp:   params.EnergyPSubBuf,
		energy.IAdderOp:    params.EnergyIAdder,
		energy.ReLUOp:      params.EnergyReLU,
		energy.MaxPoolOp:   params.EnergyMaxPool,
		energy.ShiftAddOp:  25.0, // "negligibly small" shifter+adder (§VI-A)
		energy.HyperLinkOp: params.EnergyHyperLink,
	}
}

// CountLayer counts the operations of one weighted layer, mapped as p,
// into the ledger.
func (t *Timely) CountLayer(p mapping.Placement, led *energy.Ledger) {
	l, cfg := p.Layer, t.Cfg
	passes := float64(cfg.InputPasses())
	// Input values are stored as passes × 8-bit halves: one L1 read and one
	// DTC conversion per half (O2IR: once per input, Table V).
	nIn := o2irInputReads(l) * passes
	led.Add(energy.L1Read, energy.ClassInput, nIn)
	led.Add(energy.DTCConv, energy.ClassInput, nIn)
	// O2IR principle 3: horizontal slide reuse via X-subBuf shifts.
	if l.Kind == model.KindConv {
		if shifts := l.G/l.S - 1; shifts > 0 {
			led.Add(energy.XSubBufOp, energy.ClassInput, nIn*float64(shifts))
		}
	}
	// Wave geometry of one mapped instance.
	waves := float64(p.CyclesPerImage)
	rowsUsed := p.Rows + (p.VerticalCopies-1)*p.CopyRowStride
	if rowsUsed > cfg.RowCapacity() {
		rowsUsed = cfg.RowCapacity()
	}
	colsUsed := p.VerticalCopies * l.D * p.PhysColsPerWeight
	if colsUsed > cfg.ColCapacity() {
		colsUsed = cfg.ColCapacity()
	}
	gridRows := ceilDiv(rowsUsed, cfg.B)
	gridCols := ceilDiv(colsUsed, cfg.B)
	// Horizontal time propagation across crossbar columns.
	if gridCols > 1 {
		led.Add(energy.XSubBufOp, energy.ClassInput, waves*float64(rowsUsed*(gridCols-1)))
	}
	// Crossbar activations: every spanned array fires each wave; split
	// layers activate their chunk grids in parallel.
	split := float64(p.RowSplit * p.ColSplit)
	led.Add(energy.CrossbarOp, energy.ClassCompute, waves*float64(gridRows*gridCols)*split)
	// Psum path: one charging + TDC + I-adder per physical column per
	// output wave; D·E·F output values per image and per pass, times the
	// row-split partials.
	outVals := float64(l.Outputs())
	psumConvs := outVals * passes * float64(p.PhysColsPerWeight) * float64(p.RowSplit)
	led.Add(energy.ChargingOp, energy.ClassPsum, psumConvs)
	led.Add(energy.TDCConv, energy.ClassPsum, psumConvs)
	led.Add(energy.IAdderOp, energy.ClassPsum, psumConvs)
	if gridRows > 1 {
		led.Add(energy.PSubBufOp, energy.ClassPsum, psumConvs*float64(gridRows-1))
	}
	// Digital recombination (shift-and-add across sub-ranged columns and
	// row-split partials).
	led.Add(energy.ShiftAddOp, energy.ClassDigital, psumConvs)
	if p.RowSplit > 1 {
		// Partial sums from the extra row chunks go through the output
		// buffer once (write + read-back for accumulation).
		merge := outVals * passes * float64(p.RowSplit-1)
		led.Add(energy.L1Write, energy.ClassPsum, merge)
		led.Add(energy.L1Read, energy.ClassPsum, merge)
	}
	// Final outputs: ReLU and write-back (one access per 8-bit half).
	led.Add(energy.ReLUOp, energy.ClassDigital, outVals)
	led.Add(energy.L1Write, energy.ClassOutput, outVals*passes)
}

// Evaluate implements Accelerator.
func (t *Timely) Evaluate(n *model.Network) (*Result, error) {
	plan := mapping.Lower(n, t.Cfg)
	led := energy.NewLedger(t.Units())
	stages := make([]pipeline.Stage, len(plan.Placements))
	for i, p := range plan.Placements {
		stages[i] = pipeline.Stage{Name: p.Layer.Name, Work: float64(p.CyclesPerImage), MinUnits: p.SubChips}
	}
	i := 0 // weighted-layer stage index
	for _, l := range n.Layers {
		switch {
		case l.IsWeighted():
			t.CountLayer(plan.Placements[i], led)
			// Inter-chip transfers when the pipeline crosses a chip
			// boundary (negligible energy, Fig. 9(c) L3).
			if plan.CrossesChip(i, 0) {
				led.Add(energy.HyperLinkOp, energy.ClassComm,
					float64(l.Inputs())*float64(t.Cfg.InputPasses()))
			}
			i++
		case l.Kind == model.KindMaxPool || l.Kind == model.KindAvgPool:
			led.Add(energy.MaxPoolOp, energy.ClassDigital, float64(l.Outputs()))
		}
	}
	inst := make([]int, len(stages))
	if t.LayerInstances != nil {
		if len(t.LayerInstances) != len(stages) {
			return nil, fmt.Errorf("timely: %d layer instances for %d weighted layers",
				len(t.LayerInstances), len(stages))
		}
		// Adopt the supplied (baseline-published) duplication ratios,
		// shrinking uniformly if they exceed capacity.
		total := t.Cfg.Chips * t.Cfg.SubChips
		used := 0
		for i, s := range stages {
			if t.LayerInstances[i] < 1 {
				return nil, fmt.Errorf("timely: non-positive instance count at layer %d", i)
			}
			used += t.LayerInstances[i] * s.MinUnits
		}
		scale := 1.0
		if used > total {
			scale = float64(total) / float64(used)
		}
		for i := range stages {
			inst[i] = int(float64(t.LayerInstances[i]) * scale)
			if inst[i] < 1 {
				inst[i] = 1
			}
		}
	} else {
		// Default: uniform network-level weight duplication — whole extra
		// copies of the network pipeline, which keeps the throughput gain
		// linear in chip count (the constant 736.6× of Fig. 8(b)).
		for i := range inst {
			inst[i] = plan.Copies
		}
	}
	cycles := pipeline.BottleneckCycles(stages, inst)
	ct := t.Cfg.CycleTime()
	return &Result{
		Accelerator:    t.Name(),
		Network:        n.Name,
		Ledger:         led,
		CyclesPerImage: cycles,
		CycleTimePS:    ct,
		ImagesPerSec:   pipeline.Throughput(cycles, ct),
		Chips:          t.Cfg.Chips,
		Instances:      inst,
		Fits:           plan.Fits,
	}, nil
}
