// Package energy implements the typed accounting ledger every simulator
// writes into: operation counts per circuit component, tagged with the data
// class being moved (input / psum / output / weight / compute), so the
// paper's breakdowns can be queried along any axis — by component (Fig. 9b),
// by data type (Fig. 9d), or by memory level (Fig. 9c).
//
// Counts and unit energies are kept separately; energy is counts × unit.
// Units are femtojoules.
package energy

import "fmt"

// Component enumerates every energy-bearing circuit block across TIMELY,
// PRIME and ISAAC.
type Component int

const (
	// L1Read / L1Write: accesses to the (ReRAM) input/output buffers of a
	// sub-chip (TIMELY) or the buffers next to FF subarrays (PRIME).
	L1Read Component = iota
	L1Write
	// L2Read / L2Write: PRIME's mem-subarray level (absent in TIMELY).
	L2Read
	L2Write
	// DTCConv / TDCConv: time-domain interface conversions.
	DTCConv
	TDCConv
	// DACConv / ADCConv: voltage-domain interface conversions (baselines).
	DACConv
	ADCConv
	// CrossbarOp: one crossbar compute activation.
	CrossbarOp
	// ChargingOp: one charging-unit + comparator operation.
	ChargingOp
	// XSubBufOp / PSubBufOp / IAdderOp: analog local buffer operations.
	XSubBufOp
	PSubBufOp
	IAdderOp
	// ReLUOp / MaxPoolOp / ShiftAddOp: digital post-processing.
	ReLUOp
	MaxPoolOp
	ShiftAddOp
	// BusOp: on-chip bus transfer; HyperLinkOp: inter-chip HyperTransport.
	BusOp
	HyperLinkOp
	// EDRAMRead / EDRAMWrite / IRRead: ISAAC's tile memory hierarchy.
	EDRAMRead
	EDRAMWrite
	IRRead
	numComponents
)

var componentNames = [numComponents]string{
	"L1.read", "L1.write", "L2.read", "L2.write",
	"DTC", "TDC", "DAC", "ADC",
	"crossbar", "charging", "X-subBuf", "P-subBuf", "I-adder",
	"ReLU", "maxpool", "shift-add",
	"bus", "hyperlink",
	"eDRAM.read", "eDRAM.write", "IR.read",
}

// String returns the component's name.
func (c Component) String() string {
	if c < 0 || c >= numComponents {
		return fmt.Sprintf("component(%d)", int(c))
	}
	return componentNames[c]
}

// Components returns all components in declaration order.
func Components() []Component {
	out := make([]Component, numComponents)
	for i := range out {
		out[i] = Component(i)
	}
	return out
}

// Class tags which kind of data an operation served (Fig. 9(d)'s axis).
type Class int

const (
	// ClassInput: movements/conversions of layer inputs.
	ClassInput Class = iota
	// ClassPsum: partial-sum movements/conversions.
	ClassPsum
	// ClassOutput: final output writes (and their interfaces).
	ClassOutput
	// ClassCompute: in-array computation.
	ClassCompute
	// ClassDigital: digital post-processing.
	ClassDigital
	// ClassComm: inter-tile / inter-chip communication.
	ClassComm
	numClasses
)

var classNames = [numClasses]string{"input", "psum", "output", "compute", "digital", "comm"}

// String returns the data-class name.
func (c Class) String() string {
	if c < 0 || c >= numClasses {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// Classes returns all classes in declaration order.
func Classes() []Class {
	out := make([]Class, numClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// Level is the memory-hierarchy attribution of a component (Fig. 9(c)).
type Level int

const (
	// LevelALB: analog local buffers (X-subBuf, P-subBuf, I-adder).
	LevelALB Level = iota
	// LevelL1: first-level digital memory (TIMELY buffers, ISAAC eDRAM+IR).
	LevelL1
	// LevelL2: second-level memory (PRIME mem subarrays).
	LevelL2
	// LevelL3: bus / inter-chip links.
	LevelL3
	// LevelNone: not a memory access (interfaces, compute, digital).
	LevelNone
	numLevels
)

var levelNames = [numLevels]string{"ALB", "L1", "L2", "L3", "-"}

// String returns the memory-level name.
func (l Level) String() string {
	if l < 0 || l >= numLevels {
		return fmt.Sprintf("level(%d)", int(l))
	}
	return levelNames[l]
}

// LevelOf maps each component to its memory level.
func LevelOf(c Component) Level {
	switch c {
	case XSubBufOp, PSubBufOp, IAdderOp:
		return LevelALB
	case L1Read, L1Write, EDRAMRead, EDRAMWrite, IRRead:
		return LevelL1
	case L2Read, L2Write:
		return LevelL2
	case BusOp, HyperLinkOp:
		return LevelL3
	}
	return LevelNone
}

// IsInterface reports whether the component is a D/A or A/D conversion
// (the Fig. 9(b) axis).
func IsInterface(c Component) bool {
	switch c {
	case DTCConv, TDCConv, DACConv, ADCConv:
		return true
	}
	return false
}

// Ledger accumulates tagged operation counts against a unit-energy table.
type Ledger struct {
	units  [numComponents]float64
	counts [numComponents][numClasses]float64
}

// NewLedger builds a ledger with the given per-component unit energies (fJ).
// Components absent from the map cost zero.
func NewLedger(units map[Component]float64) *Ledger {
	l := &Ledger{}
	for c, e := range units {
		l.units[c] = e
	}
	return l
}

// Add records n operations of component c serving class cl. n is rounded
// on its own, so a caller's count product inlined here never fuses into
// the sum on any GOARCH.
func (l *Ledger) Add(c Component, cl Class, n float64) {
	l.counts[c][cl] += float64(n)
}

// Count returns the operation count of component c across all classes.
func (l *Ledger) Count(c Component) float64 {
	s := 0.0
	for _, v := range l.counts[c] {
		s += v
	}
	return s
}

// CountClass returns the operation count of component c serving class cl.
func (l *Ledger) CountClass(c Component, cl Class) float64 { return l.counts[c][cl] }

// Unit returns the unit energy of component c.
func (l *Ledger) Unit(c Component) float64 { return l.units[c] }

// Energy returns the energy of component c across all classes (fJ). It
// and EnergyClass round their product, so the sums over components that
// inline them never fuse it.
func (l *Ledger) Energy(c Component) float64 { return float64(l.Count(c) * l.units[c]) }

// EnergyClass returns the energy of component c serving class cl (fJ).
func (l *Ledger) EnergyClass(c Component, cl Class) float64 {
	return float64(l.counts[c][cl] * l.units[c])
}

// Total returns the whole-ledger energy (fJ).
func (l *Ledger) Total() float64 {
	s := 0.0
	for c := Component(0); c < numComponents; c++ {
		s += l.Energy(c)
	}
	return s
}

// ByClass returns the total energy attributed to class cl (fJ).
func (l *Ledger) ByClass(cl Class) float64 {
	s := 0.0
	for c := Component(0); c < numComponents; c++ {
		s += l.EnergyClass(c, cl)
	}
	return s
}

// ByLevel returns the total energy of accesses at memory level lv (fJ).
func (l *Ledger) ByLevel(lv Level) float64 {
	s := 0.0
	for c := Component(0); c < numComponents; c++ {
		if LevelOf(c) == lv {
			s += l.Energy(c)
		}
	}
	return s
}

// MovementByClass returns the data-movement energy (memory + ALB + comm
// levels, excluding interfaces and compute) attributed to class cl.
func (l *Ledger) MovementByClass(cl Class) float64 {
	s := 0.0
	for c := Component(0); c < numComponents; c++ {
		if LevelOf(c) != LevelNone {
			s += l.EnergyClass(c, cl)
		}
	}
	return s
}

// InterfaceEnergy returns the total D/A + A/D conversion energy (fJ).
func (l *Ledger) InterfaceEnergy() float64 {
	s := 0.0
	for c := Component(0); c < numComponents; c++ {
		if IsInterface(c) {
			s += l.Energy(c)
		}
	}
	return s
}
