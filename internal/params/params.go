// Package params holds every architectural, circuit and calibration constant
// used by the TIMELY reproduction: the paper's Table I/II parameters, the
// TIMELY sub-chip/chip organisation, and the PRIME and ISAAC baseline
// configurations the paper models with its in-house simulator.
//
// Units are uniform across the repository:
//
//   - energy:  femtojoules (fJ)
//   - time:    picoseconds (ps)
//   - area:    square micrometres (µm²)
//
// Constants that come verbatim from the paper cite their source (table or
// section). Constants the paper does not publish are marked "calibrated"
// together with the anchor they were fitted against (see DESIGN.md).
package params

// Physical constants of the TIMELY design (paper §IV-C, §VI-A, Table II).
const (
	// TDel is the DTC/TDC unit delay in ps (§IV-C: "Tdel is designed to be 50 ps").
	TDel = 50.0
	// TDelMargin is the additional design margin per unit delay in ps (§V).
	TDelMargin = 40.0
	// DTCBits is the DTC/TDC resolution (Table II: 8 bits).
	DTCBits = 8
	// DTCLevels is the number of DTC output levels (2^DTCBits).
	DTCLevels = 1 << DTCBits
	// DTCConversionTime is one 8-bit DTC/TDC conversion in ps
	// (§IV-C: 25 ns including margin).
	DTCConversionTime = 25_000.0
	// VDD is the logic-high voltage of time-domain signals in volts (§VI-A).
	VDD = 1.2
	// ClockRateHz is the digital clock of the chip (§VI-A: 40 MHz).
	ClockRateHz = 40e6
	// ResetPhase is the sub-chip reset phase φ duration in ps (§VI-A: 25 ns).
	ResetPhase = 25_000.0
)

// TIMELY sub-chip organisation (Table II).
const (
	// CrossbarSize is B: a crossbar holds B×B ReRAM bit cells (256×256).
	CrossbarSize = 256
	// CellBits is the number of weight bits stored per ReRAM cell (Table II: 4).
	CellBits = 4
	// CellLevels is the number of programmable conductance levels per cell.
	CellLevels = 1 << CellBits
	// GridRows is the number of crossbar rows per sub-chip (Table II: 16×12 grid).
	GridRows = 16
	// GridCols is the number of crossbar columns per sub-chip.
	GridCols = 12
	// CrossbarsPerSubChip is GridRows×GridCols.
	CrossbarsPerSubChip = GridRows * GridCols
	// Gamma is the number of crossbar rows/columns sharing one DTC/TDC (§VI-A).
	Gamma = 8
	// DTCsPerSubChip is the DTC count (Table II: 16×32).
	DTCsPerSubChip = GridRows * CrossbarSize / Gamma
	// TDCsPerSubChip is the TDC count (Table II: 12×32).
	TDCsPerSubChip = GridCols * CrossbarSize / Gamma
	// SubChipsPerChip is χ, the sub-chip count per chip (§VI-A: 106 for the
	// 91 mm² configuration used against ISAAC's 88 mm²).
	SubChipsPerChip = 106
	// CrossbarsPerChip is the crossbar count of one TIMELY chip
	// (Fig. 8(b): 20352 = 106 × 192).
	CrossbarsPerChip = SubChipsPerChip * CrossbarsPerSubChip
	// SubChipRowCapacity is the number of logical dot-product rows one
	// sub-chip exposes (all crossbar rows in one grid column stack).
	SubChipRowCapacity = GridRows * CrossbarSize
	// SubChipColCapacity is the number of bit-cell columns one sub-chip
	// exposes horizontally.
	SubChipColCapacity = GridCols * CrossbarSize
)

// PipelineCycle is the TIMELY pipeline-cycle time in ps. It is set by the
// slowest stage: γ=8 serialized DTC/TDC conversions of 25 ns each (§VI-A),
// i.e. 200 ns.
const PipelineCycle = Gamma * DTCConversionTime

// Stage latencies of the intra-sub-chip pipeline in ps (§VI-A, from [24]).
const (
	LatencyInputRead   = 16_000.0  // reading inputs from the input buffer
	LatencyAnalog      = 150_000.0 // analog-domain computation
	LatencyOutputWrite = 160_000.0 // writing outputs back to output buffers
)

// TIMELY per-component energies in fJ per use (Table II).
const (
	EnergyDTC       = 37.5   // one 8-bit DTC conversion
	EnergyTDC       = 145.0  // one 8-bit TDC conversion
	EnergyCrossbar  = 1792.0 // one 256×256 crossbar compute activation
	EnergyCharging  = 41.7   // one charging-unit + comparator operation
	EnergyXSubBuf   = 0.62   // one X-subBuf access (eX)
	EnergyPSubBuf   = 2.3    // one P-subBuf access (eP)
	EnergyIAdder    = 36.8   // one I-adder operation
	EnergyReLU      = 205.0  // one ReLU operation
	EnergyMaxPool   = 330.0  // one max-pool operation
	EnergyHyperLink = 1620.0 // one HyperTransport link transfer (inter-chip)
)

// L1 (ReRAM input/output buffer) access energies in fJ.
//
// Table II gives the 2 KB input/output buffer macro energies — 12.736 pJ per
// read access and 31.039 pJ per write access — which dominate TIMELY's
// residual memory energy and put its VGG-D total on the mJ/₁₀ scale of
// Fig. 9(c). Separately, Fig. 5(d) normalises a fine-grained (per-bit-line)
// access eR2 : eP : eX = 1 : 0.11 : 0.03, and §III-B anchors it at ≈9× a
// P-subBuf and ≈33× an X-subBuf (9×2.3 ≈ 33×0.62 ≈ 20.7 fJ); that anchor is
// kept as EnergyL1RefRead for the Fig. 5 reproduction.
const (
	EnergyL1Read  = 12_736.0
	EnergyL1Write = 31_039.0
	// EnergyL1RefRead is the §III-B / Fig. 5(d) fine-grained normalisation
	// anchor (≈9× eP, ≈33× eX).
	EnergyL1RefRead = 20.7
)

// TIMELY per-component areas in µm² (Table II).
const (
	AreaDTC       = 240.0
	AreaTDC       = 310.0
	AreaCrossbar  = 100.0
	AreaCharging  = 40.0
	AreaXSubBuf   = 5.0
	AreaPSubBuf   = 5.0
	AreaIAdder    = 40.0 // hidden under charging caps / crossbars, excluded from totals (§VI-A)
	AreaReLU      = 300.0
	AreaMaxPool   = 240.0
	AreaInBuffer  = 50.0
	AreaOutBuffer = 50.0
)

// Component counts per sub-chip (Table II).
const (
	CountCharging = GridCols * CrossbarSize                  // 12×256
	CountXSubBuf  = GridCols * GridRows * CrossbarSize       // 12×16×256
	CountPSubBuf  = (GridRows - 1) * GridCols * CrossbarSize // 15×12×256
	CountIAdder   = GridCols * CrossbarSize                  // 12×256
	CountReLU     = 2
	CountMaxPool  = 1
)

// Interface energy ratios (Fig. 5(d) and Innovation #2 of §III-B):
// q1 = eDAC/eDTC ≈ 50 and q2 = eADC/eTDC ≈ 20.
const (
	Q1DACOverDTC = 50.0
	Q2ADCOverTDC = 20.0
)

// Derived voltage-domain interface energies (fJ per conversion), used by the
// PRIME/ISAAC baseline models: eDAC = q1·eDTC, eADC = q2·eTDC.
const (
	EnergyDAC = Q1DACOverDTC * EnergyDTC // 1875 fJ
	EnergyADC = Q2ADCOverTDC * EnergyTDC // 2900 fJ
)

// Memory hierarchy ratios from §VI-C: PRIME's L2 memory has 146.7×/6.9×
// higher read/write energy than an L1 memory.
const (
	L2OverL1Read  = 146.7
	L2OverL1Write = 6.9
)

// Noise parameters for the accuracy study (§V, §VI-B).
const (
	// MaxCascadedXSubBufs is the cascade limit used for the ≤0.1 % accuracy
	// claim ("we set the number of cascaded X-subBufs to 12").
	MaxCascadedXSubBufs = 12
	// DefaultXSubBufSigma is the per-X-subBuf time error ε in ps. The paper
	// requires √12·ε to stay within the design margin; with the 40 ps/LSB
	// margin this bounds ε ≲ 11.5 ps. 10 ps is the default design point.
	DefaultXSubBufSigma = 10.0
	// DefaultPSubBufRelSigma is the relative current-mirror gain error of a
	// P-subBuf (calibrated: Cadence Monte-Carlo in the paper; Gaussian here).
	DefaultPSubBufRelSigma = 0.002
	// DefaultComparatorSigma is the comparator threshold jitter in ps.
	DefaultComparatorSigma = 5.0
)

// TimelyConfig captures one TIMELY chip configuration. The zero value is not
// useful; use DefaultTimely.
type TimelyConfig struct {
	// B is the crossbar dimension (B×B bit cells).
	B int
	// GridRows and GridCols give the crossbar grid of one sub-chip.
	GridRows, GridCols int
	// Gamma is the DTC/TDC sharing factor.
	Gamma int
	// SubChips is χ, the number of sub-chips per chip.
	SubChips int
	// Chips is the number of chips in the deployment (16/32/64 in Fig. 8(b)).
	Chips int
	// WeightBits and InputBits give the data precision (8 or 16).
	WeightBits, InputBits int
	// CellBits is the number of weight bits per ReRAM cell.
	CellBits int
}

// DefaultTimely returns the Table II configuration at the given precision
// (8 for the PRIME comparison, 16 for the ISAAC comparison) with one chip.
func DefaultTimely(bits int) TimelyConfig {
	return TimelyConfig{
		B:          CrossbarSize,
		GridRows:   GridRows,
		GridCols:   GridCols,
		Gamma:      Gamma,
		SubChips:   SubChipsPerChip,
		Chips:      1,
		WeightBits: bits,
		InputBits:  bits,
		CellBits:   CellBits,
	}
}

// ColumnsPerWeight is the number of adjacent bit-cell columns one weight
// occupies under the sub-ranging scheme (§IV-C): ⌈WeightBits/CellBits⌉.
func (c TimelyConfig) ColumnsPerWeight() int {
	return (c.WeightBits + c.CellBits - 1) / c.CellBits
}

// InputPasses is the number of 8-bit DTC passes needed per input
// (16-bit inputs are fed as two 8-bit halves).
func (c TimelyConfig) InputPasses() int {
	return (c.InputBits + DTCBits - 1) / DTCBits
}

// CrossbarsPerSubChip returns the crossbar count of one sub-chip.
func (c TimelyConfig) CrossbarsPerSubChip() int { return c.GridRows * c.GridCols }

// RowCapacity is the logical dot-product row capacity of one sub-chip.
func (c TimelyConfig) RowCapacity() int { return c.GridRows * c.B }

// ColCapacity is the bit-cell column capacity of one sub-chip.
func (c TimelyConfig) ColCapacity() int { return c.GridCols * c.B }

// CycleTime returns the pipeline-cycle time in ps (γ serialized conversions).
func (c TimelyConfig) CycleTime() float64 { return float64(c.Gamma) * DTCConversionTime }

// MACsPerSubChipCycle is the number of WeightBits-wide MACs one fully
// utilised sub-chip completes per pipeline cycle.
func (c TimelyConfig) MACsPerSubChipCycle() float64 {
	cells := float64(c.CrossbarsPerSubChip()) * float64(c.B) * float64(c.B)
	return cells / float64(c.ColumnsPerWeight())
}

// PeakMACsPerSecond is the peak MAC rate of the whole deployment.
func (c TimelyConfig) PeakMACsPerSecond() float64 {
	cyclesPerSec := 1e12 / (c.CycleTime() * float64(c.InputPasses()))
	return float64(c.Chips*c.SubChips) * c.MACsPerSubChipCycle() * cyclesPerSec
}
