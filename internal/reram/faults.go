package reram

import (
	"fmt"

	"repro/internal/stats"
)

// Stuck-at fault injection. ReRAM arrays suffer hard faults — cells stuck
// at low conductance (SA0, cannot be programmed up) or high conductance
// (SA1, cannot be programmed down). §V leans on CNN/DNN algorithm
// resilience against such hardware vulnerability (citing the defect-rescue
// literature [9],[48]); the fault model here drives the defect ablation in
// package experiments.

// FaultKind enumerates hard-fault types.
type FaultKind int

const (
	// FaultSA0 pins a cell at level 0.
	FaultSA0 FaultKind = iota
	// FaultSA1 pins a cell at the maximum level.
	FaultSA1
)

// String returns the fault kind's name.
func (k FaultKind) String() string {
	switch k {
	case FaultSA0:
		return "SA0"
	case FaultSA1:
		return "SA1"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// FaultMap records the injected faults of one crossbar.
type FaultMap struct {
	// SA0 and SA1 count the injected faults by kind.
	SA0, SA1 int
}

// Total returns the fault count.
func (f FaultMap) Total() int { return f.SA0 + f.SA1 }

// InjectStuckFaults pins a random fraction `rate` of the cells: half stuck
// at level 0, half at the maximum level (the usual 50/50 SAF split in the
// defect literature). Faulted cells override whatever was programmed and
// ignore later Program calls. It returns the injected fault map.
//
// The realised fault count comes from one exact Binomial(cells, rate)
// draw and the positions from Floyd's sampling without replacement, with
// one polarity deviate per fault interleaved after its position draw —
// O(faults) per injection, the sublinear hot path of the defect sweep. The
// consumed sequence is deterministic per generator state, so a deferred
// injection replays exactly from a clone. (Package core keys the generator
// itself per (seed, trial, grid slot), so which crossbar a generator
// belongs to is part of its identity, not its position in a serial
// stream.)
func (x *Crossbar) InjectStuckFaults(rate float64, rng *stats.RNG) (FaultMap, error) {
	if rate < 0 || rate > 1 {
		return FaultMap{}, fmt.Errorf("reram: fault rate %v outside [0,1]", rate)
	}
	x.invalidate()
	var fm FaultMap
	k := rng.Binomial(len(x.levels), rate)
	if k == 0 {
		return fm, nil
	}
	if x.faults == nil {
		x.faults = make([]int8, len(x.levels))
	}
	maxLevel := x.MaxLevel()
	rng.SampleK(len(x.levels), k, func(pos int) {
		// Polarity draw per fault: top bit clear ⇔ Float64() < 0.5.
		if rng.Uint64() < 1<<63 {
			x.faults[pos] = faultSA0
			x.levels[pos] = 0
			fm.SA0++
		} else {
			x.faults[pos] = faultSA1
			x.levels[pos] = maxLevel
			fm.SA1++
		}
	})
	return fm, nil
}

// StuckFaultCount returns the stuck-cell total an injection over n cells
// would realise, drawing only the Binomial(n, rate) count. The invariant
// that makes this exact: the count is the first draw of InjectStuckFaults,
// so the total is fixed before the O(faults) position and polarity draws
// begin. The generator is left mid-sequence — callers use it on a
// substream they discard, and replay the injection from a clone taken
// before the call.
func StuckFaultCount(n int, rate float64, rng *stats.RNG) (int, error) {
	if rate < 0 || rate > 1 {
		return 0, fmt.Errorf("reram: fault rate %v outside [0,1]", rate)
	}
	return rng.Binomial(n, rate), nil
}

// ClearFaults removes all injected faults (programmed levels of previously
// faulted cells remain at their pinned values until reprogrammed).
func (x *Crossbar) ClearFaults() {
	x.faults = nil
	x.invalidate()
}

// IsFaulty reports whether the cell carries a stuck-at fault.
func (x *Crossbar) IsFaulty(row, col int) bool {
	if x.faults == nil {
		return false
	}
	return x.faults[row*x.B+col] != faultNone
}

const (
	faultNone int8 = iota
	faultSA0
	faultSA1
)
