package params

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTableIICounts(t *testing.T) {
	if DTCsPerSubChip != 16*32 {
		t.Errorf("DTCsPerSubChip = %d, want %d (Table II: 16x32)", DTCsPerSubChip, 16*32)
	}
	if TDCsPerSubChip != 12*32 {
		t.Errorf("TDCsPerSubChip = %d, want %d (Table II: 12x32)", TDCsPerSubChip, 12*32)
	}
	if CrossbarsPerSubChip != 192 {
		t.Errorf("CrossbarsPerSubChip = %d, want 192 (16x12)", CrossbarsPerSubChip)
	}
	if CountXSubBuf != 12*16*256 {
		t.Errorf("CountXSubBuf = %d, want %d", CountXSubBuf, 12*16*256)
	}
	if CountPSubBuf != 15*12*256 {
		t.Errorf("CountPSubBuf = %d, want %d", CountPSubBuf, 15*12*256)
	}
	if CountCharging != 12*256 {
		t.Errorf("CountCharging = %d, want %d", CountCharging, 12*256)
	}
}

func TestGammaSharingIsConsistent(t *testing.T) {
	// Every crossbar row must be served: DTC count x gamma = grid rows x B.
	if DTCsPerSubChip*Gamma != GridRows*CrossbarSize {
		t.Errorf("DTC sharing inconsistent: %d*%d != %d*%d",
			DTCsPerSubChip, Gamma, GridRows, CrossbarSize)
	}
	if TDCsPerSubChip*Gamma != GridCols*CrossbarSize {
		t.Errorf("TDC sharing inconsistent: %d*%d != %d*%d",
			TDCsPerSubChip, Gamma, GridCols, CrossbarSize)
	}
}

func TestCrossbarsPerChipMatchesFig8b(t *testing.T) {
	if CrossbarsPerChip != 20352 {
		t.Errorf("CrossbarsPerChip = %d, want 20352 (Fig. 8(b))", CrossbarsPerChip)
	}
}

func TestPipelineCycleIs200ns(t *testing.T) {
	if !almostEqual(PipelineCycle, 200_000, 1e-9) {
		t.Errorf("PipelineCycle = %v ps, want 200000 ps (8 x 25 ns)", PipelineCycle)
	}
}

func TestL1EnergyAnchors(t *testing.T) {
	// §III-B: the fine-grained high-cost access reference is ≈ 9× a
	// P-subBuf and ≈ 33× an X-subBuf (the Fig. 5(d) normalisation).
	if r := EnergyL1RefRead / EnergyPSubBuf; !almostEqual(r, 9, 0.5) {
		t.Errorf("eR2/eP = %.2f, want ≈9", r)
	}
	if r := EnergyL1RefRead / EnergyXSubBuf; !almostEqual(r, 33, 1.0) {
		t.Errorf("eR2/eX = %.2f, want ≈33", r)
	}
	// Table II macro accesses dominate TIMELY's residual memory energy.
	if EnergyL1Read != 12_736.0 || EnergyL1Write != 31_039.0 {
		t.Errorf("Table II buffer energies changed: %v/%v", EnergyL1Read, EnergyL1Write)
	}
}

func TestInterfaceRatios(t *testing.T) {
	if !almostEqual(EnergyDAC/EnergyDTC, Q1DACOverDTC, 1e-9) {
		t.Errorf("eDAC/eDTC = %v, want %v", EnergyDAC/EnergyDTC, Q1DACOverDTC)
	}
	if !almostEqual(EnergyADC/EnergyTDC, Q2ADCOverTDC, 1e-9) {
		t.Errorf("eADC/eTDC = %v, want %v", EnergyADC/EnergyTDC, Q2ADCOverTDC)
	}
}

func TestTimelyConfigDerived(t *testing.T) {
	c8 := DefaultTimely(8)
	if got := c8.ColumnsPerWeight(); got != 2 {
		t.Errorf("8-bit ColumnsPerWeight = %d, want 2", got)
	}
	if got := c8.InputPasses(); got != 1 {
		t.Errorf("8-bit InputPasses = %d, want 1", got)
	}
	c16 := DefaultTimely(16)
	if got := c16.ColumnsPerWeight(); got != 4 {
		t.Errorf("16-bit ColumnsPerWeight = %d, want 4", got)
	}
	if got := c16.InputPasses(); got != 2 {
		t.Errorf("16-bit InputPasses = %d, want 2", got)
	}
	if got := c8.RowCapacity(); got != 4096 {
		t.Errorf("RowCapacity = %d, want 4096", got)
	}
	if got := c8.ColCapacity(); got != 3072 {
		t.Errorf("ColCapacity = %d, want 3072", got)
	}
}

func TestPeakMACRateOrderOfMagnitude(t *testing.T) {
	// Table IV reports 38.33 TOPs/(s·mm²) on a 91 mm² chip at 8-bit, i.e.
	// ~3.5e15 ops/s per chip. Our first-principles model must land within
	// ~30 % (the paper counts one MAC as one operation here; see DESIGN.md).
	c := DefaultTimely(8)
	got := c.PeakMACsPerSecond()
	want := 38.33e12 * 91.0
	if got < want*0.7 || got > want*1.3 {
		t.Errorf("8-bit peak MAC/s = %.3g, want within 30%% of %.3g", got, want)
	}
	// 16-bit: 9.58 TOPs/(s·mm²) × 91 mm².
	c16 := DefaultTimely(16)
	got16 := c16.PeakMACsPerSecond()
	want16 := 9.58e12 * 91.0
	if got16 < want16*0.7 || got16 > want16*1.3 {
		t.Errorf("16-bit peak MAC/s = %.3g, want within 30%% of %.3g", got16, want16)
	}
}

func TestPrimeConfig(t *testing.T) {
	p := DefaultPrime()
	if p.ColumnsPerWeight() != 2 {
		t.Errorf("PRIME ColumnsPerWeight = %d, want 2", p.ColumnsPerWeight())
	}
	if p.Crossbars != 1024 {
		t.Errorf("PRIME crossbars = %d, want 1024 (Fig. 8(b))", p.Crossbars)
	}
	if PrimeEnergyL2Read/PrimeEnergyBufAccess != L2OverL1Read {
		t.Errorf("L2/L1 read ratio broken")
	}
	if p.PhasesPerWave != 2 {
		t.Errorf("PhasesPerWave = %d, want 2 (6-bit inputs via 3-bit DACs)", p.PhasesPerWave)
	}
}

func TestIsaacConfig(t *testing.T) {
	i := DefaultIsaac()
	if i.ColumnsPerWeight() != 8 {
		t.Errorf("ISAAC ColumnsPerWeight = %d, want 8 (16-bit over 2-bit cells)", i.ColumnsPerWeight())
	}
	if i.InputBitCycles() != 16 {
		t.Errorf("ISAAC InputBitCycles = %d, want 16", i.InputBitCycles())
	}
	if i.Crossbars != 16128 {
		t.Errorf("ISAAC crossbars = %d, want 16128 (Fig. 8(b))", i.Crossbars)
	}
	// §III-A anchors.
	if r := IsaacEnergyEDRAMRead / IsaacEnergyMAC16; !almostEqual(r, 4416, 1) {
		t.Errorf("eDRAM/MAC = %v, want 4416", r)
	}
	if r := IsaacEnergyIRRead / IsaacEnergyMAC16; !almostEqual(r, 264.5, 0.1) {
		t.Errorf("IR/MAC = %v, want 264.5", r)
	}
	if r := IsaacEnergyDAC / IsaacEnergyMAC16; !almostEqual(r, 109.7, 0.1) {
		t.Errorf("DAC/MAC = %v, want 109.7", r)
	}
}

func TestXSubBufNoiseMarginDesignPoint(t *testing.T) {
	// §VI-B: the accumulated error of 12 cascaded X-subBufs is √12·ε and
	// must be tolerated by the design margin. Check the default design point.
	acc := math.Sqrt(MaxCascadedXSubBufs) * DefaultXSubBufSigma
	if acc > TDelMargin {
		t.Errorf("√12·ε = %.1f ps exceeds the %v ps design margin", acc, TDelMargin)
	}
}
