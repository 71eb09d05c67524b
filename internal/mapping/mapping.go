// Package mapping implements weight-to-crossbar placement: TIMELY's O2IR
// mapping method (§IV-D, Fig. 7) and the baseline row-major mapping PRIME
// and ISAAC use. A Placement captures how one layer occupies sub-chips (or
// crossbars) and how many pipeline cycles one mapped instance needs per
// image; Lower maps a whole network onto a deployment as one Plan, with
// uniform pipeline copies filling the chips (§IV-E).
//
// O2IR's three principles appear as:
//
//  1. filters sharing inputs are mapped to the same crossbar rows in
//     parallel columns (captured by WeightCols = D weights side by side);
//  2. filters are duplicated down the array with a row offset equal to the
//     rows a vertical filter slide consumes, so one input pass yields
//     VerticalCopies output rows;
//  3. horizontal slides reuse inputs by shifting them between adjacent
//     X-subBufs (temporal: one output column per pipeline cycle).
package mapping

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/params"
)

// Placement describes how one layer instance occupies TIMELY sub-chips.
type Placement struct {
	Layer model.Layer
	// Rows is the dot-product depth C·Z·G (conv) or C·H·W (FC).
	Rows int
	// CopyRowStride is the extra row offset per additional vertical filter
	// copy: the C·G·S fresh im2col rows a vertical slide consumes.
	CopyRowStride int
	// PhysColsPerWeight is the bit-cell columns per weight (sub-ranging
	// only for the paper's accounting; signed schemes may double it).
	PhysColsPerWeight int
	// VerticalCopies r: output rows produced per input pass (O2IR #2).
	VerticalCopies int
	// RowSplit / ColSplit: sub-chips stacked to cover rows / filter columns.
	RowSplit, ColSplit int
	// SubChips is RowSplit × ColSplit, the sub-chips of one instance.
	SubChips int
	// CyclesPerImage is the pipeline-cycle count one instance needs to
	// produce the layer's outputs for one image (including input passes).
	CyclesPerImage int64
}

// PlaceO2IR places one weighted layer under the O2IR mapping. It panics on
// non-weighted layers (pool layers occupy no crossbars).
func PlaceO2IR(l model.Layer, cfg params.TimelyConfig) Placement {
	return place(l, cfg, cfg.ColumnsPerWeight())
}

// PlaceO2IRScheme places with an explicit physical columns-per-weight count
// (e.g. 2× for the differential signed scheme of the functional simulator).
func PlaceO2IRScheme(l model.Layer, cfg params.TimelyConfig, physColsPerWeight int) Placement {
	return place(l, cfg, physColsPerWeight)
}

func place(l model.Layer, cfg params.TimelyConfig, cpw int) Placement {
	if !l.IsWeighted() {
		panic(fmt.Sprintf("mapping: layer %s (%s) holds no weights", l.Name, l.Kind))
	}
	p := Placement{
		Layer:             l,
		Rows:              l.DotRows(),
		PhysColsPerWeight: cpw,
		VerticalCopies:    1,
	}
	rowCap, colCap := cfg.RowCapacity(), cfg.ColCapacity()
	wCols := l.D * cpw

	p.RowSplit = ceilDiv(p.Rows, rowCap)
	p.ColSplit = ceilDiv(wCols, colCap)

	if l.Kind == model.KindConv {
		p.CopyRowStride = l.C * l.G * l.S
		if p.RowSplit == 1 && p.ColSplit == 1 {
			// O2IR #2: duplicate filters down the spare rows and across the
			// spare columns; bounded by output height (no use copying past E).
			byRows := (rowCap-p.Rows)/p.CopyRowStride + 1
			byCols := colCap / wCols
			p.VerticalCopies = minInt(minInt(byRows, byCols), l.E)
			if p.VerticalCopies < 1 {
				p.VerticalCopies = 1
			}
		}
	}
	p.SubChips = p.RowSplit * p.ColSplit

	passes := int64(cfg.InputPasses())
	switch l.Kind {
	case model.KindConv:
		p.CyclesPerImage = int64(ceilDiv(l.E, p.VerticalCopies)) * int64(l.F) * passes
	case model.KindFC:
		p.CyclesPerImage = passes
	}
	return p
}

// Plan is TIMELY's layer-by-layer mapping of one network onto a deployment
// (§IV-E): every weighted layer gets an O2IR placement on consecutive
// sub-chips, and whole copies of that pipeline fill the chips. The analytic
// model, the timing backend and the §IV-F compiler all lower through it.
type Plan struct {
	// Placements holds each weighted layer's O2IR placement, in layer
	// order; stage i is the i-th weighted layer.
	Placements []Placement
	// First is each stage's first sub-chip within one pipeline copy.
	First []int
	// Need is the sub-chips one pipeline copy occupies.
	Need int
	// Fits reports whether one pipeline copy fits the deployment.
	Fits bool
	// Copies is the uniform weight duplication: the whole pipeline copies
	// the deployment holds (1 when one copy does not fit).
	Copies int
	// perChip is χ, the sub-chips per chip.
	perChip int
}

// Lower maps a network onto cfg's chips. Copy c of the pipeline occupies
// global sub-chips [c·Need, (c+1)·Need).
func Lower(n *model.Network, cfg params.TimelyConfig) Plan {
	p := Plan{perChip: cfg.SubChips, Copies: 1}
	for _, l := range n.WeightedLayers() {
		pl := PlaceO2IR(l, cfg)
		p.Placements = append(p.Placements, pl)
		p.First = append(p.First, p.Need)
		p.Need += pl.SubChips
	}
	total := cfg.Chips * cfg.SubChips
	p.Fits = p.Need <= total
	if p.Fits && p.Need > 0 {
		p.Copies = total / p.Need
	}
	return p
}

// CrossesChip reports whether the boundary into stage (from stage−1) of
// pipeline copy copy is routed across a chip edge, the one rule behind
// both the analytic HyperLink energy and the timing backend's
// HyperTransport routing: it holds when the stage's sub-chips run up to or
// past a multiple of χ. Stage 0 has no inbound boundary.
func (p Plan) CrossesChip(stage, copy int) bool {
	if stage == 0 {
		return false
	}
	start := copy*p.Need + p.First[stage]
	return start/p.perChip != (start+p.Placements[stage].SubChips)/p.perChip
}

// BaselinePlacement describes a layer mapped row-major onto B×B crossbars
// without O2IR (PRIME/ISAAC style): no duplication, inputs re-read on every
// slide.
type BaselinePlacement struct {
	Layer model.Layer
	// RowChunks is ⌈rows/B⌉: crossbars stacked per weight-column group.
	RowChunks int
	// ColChunks is ⌈D·cpw/B⌉ groups of weight columns.
	ColChunks int
	// Crossbars is RowChunks × ColChunks for one instance.
	Crossbars int
	// WavesPerImage is the dot-product waves per image (output positions ×
	// input passes; baselines convert every wave through DAC/ADC).
	WavesPerImage int64
}

// PlaceBaseline maps a layer row-major onto b×b crossbars with cpw physical
// columns per weight and the given number of input passes per wave.
func PlaceBaseline(l model.Layer, b, cpw, passes int) BaselinePlacement {
	if !l.IsWeighted() {
		panic(fmt.Sprintf("mapping: layer %s (%s) holds no weights", l.Name, l.Kind))
	}
	p := BaselinePlacement{
		Layer:     l,
		RowChunks: ceilDiv(l.DotRows(), b),
		ColChunks: ceilDiv(l.D*cpw, b),
	}
	p.Crossbars = p.RowChunks * p.ColChunks
	p.WavesPerImage = int64(l.E) * int64(l.F) * int64(passes)
	if l.Kind == model.KindFC {
		p.WavesPerImage = int64(passes)
	}
	return p
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		panic("mapping: non-positive divisor")
	}
	return (a + b - 1) / b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
