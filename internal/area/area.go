// Package area implements the silicon-area model of Table II. It reproduces
// the paper's self-consistent totals — a 0.86 mm² sub-chip and a 91 mm²
// 106-sub-chip chip — and the Fig. 10 breakdowns: the TIMELY area split by
// component (Fig. 10(b)) and the ReRAM-array share of chip area across
// accelerators (Fig. 10(a)).
package area

import (
	"fmt"
	"sort"

	"repro/internal/params"
)

// Item is one component's contribution to sub-chip area.
type Item struct {
	Name  string
	Count int
	// Unit is the per-component area in µm².
	Unit float64
}

// Total returns Count × Unit in µm², rounded so that the product cannot
// fuse into a caller's sum once inlined.
func (i Item) Total() float64 { return float64(float64(i.Count) * i.Unit) }

// SubChipItems returns the Table II component inventory of one TIMELY
// sub-chip. I-adders and their interconnect are excluded from area totals:
// the paper places them under the charging capacitors and crossbars on
// different IC layers (§VI-A).
func SubChipItems() []Item {
	return []Item{
		{"DTC", params.DTCsPerSubChip, params.AreaDTC},
		{"ReRAM crossbar", params.CrossbarsPerSubChip, params.AreaCrossbar},
		{"charging+comparator", params.CountCharging, params.AreaCharging},
		{"TDC", params.TDCsPerSubChip, params.AreaTDC},
		{"X-subBuf", params.CountXSubBuf, params.AreaXSubBuf},
		{"P-subBuf", params.CountPSubBuf, params.AreaPSubBuf},
		{"ReLU", params.CountReLU, params.AreaReLU},
		{"maxpool", params.CountMaxPool, params.AreaMaxPool},
		{"input buffer", 1, params.AreaInBuffer},
		{"output buffer", 1, params.AreaOutBuffer},
	}
}

// SubChipArea returns the TIMELY sub-chip area in µm² (Table II: 0.86 mm²).
func SubChipArea() float64 {
	s := 0.0
	for _, it := range SubChipItems() {
		s += it.Total()
	}
	return s
}

// ChipArea returns the area of a TIMELY chip with n sub-chips in µm²
// (Table II: 0.86·χ mm²; 91 mm² at χ=106).
func ChipArea(n int) float64 { return float64(n) * SubChipArea() }

// DesignPoint is the physical sub-chip design at one configuration: cycle
// time, interface-scaled area and peak compute. It is the single source of
// the γ-trade-off arithmetic shared by the §V ablation and the public
// sim.DesignPoint.
type DesignPoint struct {
	// CycleNS is the pipeline cycle in ns (γ × 25 ns).
	CycleNS float64
	// SubChipUM2 is the sub-chip area in µm² with the DTC/TDC banks
	// resized to the sharing factor.
	SubChipUM2 float64
	// PeakTOPS is the per-sub-chip peak (1 op = 1 MAC).
	PeakTOPS float64
	// DensityTOPsMM2 is the resulting computational density.
	DensityTOPsMM2 float64
}

// TimelyDesignPoint evaluates cfg's design point. The interface banks
// scale inversely with cfg.Gamma (more sharing, fewer converters); the
// rest of the sub-chip inventory is γ-independent.
func TimelyDesignPoint(cfg params.TimelyConfig) DesignPoint {
	fixed := SubChipArea() -
		float64(params.DTCsPerSubChip)*params.AreaDTC -
		float64(params.TDCsPerSubChip)*params.AreaTDC
	a := fixed +
		float64(float64(cfg.GridRows*cfg.B/cfg.Gamma)*params.AreaDTC) +
		float64(float64(cfg.GridCols*cfg.B/cfg.Gamma)*params.AreaTDC)
	tops := cfg.MACsPerSubChipCycle() / cfg.CycleTime() // MACs per ps = TOPS
	return DesignPoint{
		CycleNS:        cfg.CycleTime() / 1000,
		SubChipUM2:     a,
		PeakTOPS:       tops,
		DensityTOPsMM2: tops / (a / 1e6),
	}
}

// Share is one slice of an area breakdown.
type Share struct {
	Name     string
	Fraction float64
}

// Breakdown returns the Fig. 10(b) area split of one sub-chip, sorted by
// descending fraction.
func Breakdown() []Share {
	total := SubChipArea()
	items := SubChipItems()
	out := make([]Share, 0, len(items))
	for _, it := range items {
		out = append(out, Share{it.Name, it.Total() / total})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fraction > out[j].Fraction })
	return out
}

// ReRAMShareTimely returns the crossbar-array fraction of TIMELY chip area
// (Fig. 10(a): 2.2 %).
func ReRAMShareTimely() float64 {
	return float64(params.CrossbarsPerSubChip) * params.AreaCrossbar / SubChipArea()
}

// IsaacCrossbarArea is the area of one 128×128 ISAAC crossbar in µm².
// A 128×128 array is ¼ the cell count of TIMELY's 256×256, hence ≈25 µm²
// at the same 100 µm² / 256×256 density (Fig. 10(a) puts ISAAC's ReRAM at
// 0.4 % of its 88 mm² chip: 16128 × 25 µm² / 88 mm² ≈ 0.46 %).
const IsaacCrossbarArea = params.AreaCrossbar / 4

// IsaacChipArea is ISAAC's published chip area in µm² (88 mm²).
const IsaacChipArea = 88e6

// ReRAMShareIsaac returns ISAAC's crossbar-array share of chip area.
func ReRAMShareIsaac(crossbars int) float64 {
	return float64(crossbars) * IsaacCrossbarArea / IsaacChipArea
}

// PrimeChipArea is the die area of PRIME's host memory chip in µm². PRIME
// embeds 1024 compute mats in a full ReRAM main-memory die; the paper calls
// its compute-array share "small enough and thus ignored". We model the
// ~91 mm² die class the comparisons normalise against.
const PrimeChipArea = 91e6

// ReRAMSharePrime returns PRIME's compute-crossbar share of chip area
// (Fig. 10(a): ≈0).
func ReRAMSharePrime(crossbars int) float64 {
	return float64(crossbars) * params.AreaCrossbar / PrimeChipArea
}

// FormatMM2 renders an area in µm² as square millimetres.
func FormatMM2(um2 float64) string {
	return fmt.Sprintf("%.2f mm^2", um2/1e6)
}
