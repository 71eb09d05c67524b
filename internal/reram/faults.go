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
// The draw algorithm follows the generator's sampling regime. Under the
// legacy v1 regime the sequence is exactly one uniform deviate per cell
// plus one more per faulted cell — O(cells) per injection. Under the
// v2/v3 regimes the realised fault count comes from one exact
// Binomial(cells, rate) draw and the positions from Floyd's sampling
// without replacement — O(faults) per injection, the sublinear hot path of
// the defect sweep. (v3 additionally keys the generator itself per
// (seed, trial, grid slot) — see package core — so which crossbar a
// generator belongs to is part of its identity, not its position in a
// serial stream.) Either way CountStuckFaults consumes the identical
// sequence, which lets callers defer the array mutation and replay it
// later from a cloned generator.
func (x *Crossbar) InjectStuckFaults(rate float64, rng *stats.RNG) (FaultMap, error) {
	if rate < 0 || rate > 1 {
		return FaultMap{}, fmt.Errorf("reram: fault rate %v outside [0,1]", rate)
	}
	x.invalidate()
	if rng.Sampler() != stats.SamplerV1 {
		return x.injectStuckFaultsV2(rate, rng), nil
	}
	var fm FaultMap
	// The fault slice is only allocated once the first fault lands, so
	// low-rate draws on large arrays stay allocation-free. The generator
	// works on a stack copy (state stays in registers) and the uniform
	// comparisons run in the pre-division domain — float64(u>>11)/2^53 ⋛ p
	// iff float64(u>>11) ⋛ p·2^53, both sides exact — so the loop consumes
	// the identical deviate sequence without a float division per cell.
	local := *rng
	thresh := rate * float64(1<<53)
	for i := range x.levels {
		u := local.Uint64()
		if float64(u>>11) >= thresh {
			continue
		}
		if x.faults == nil {
			x.faults = make([]int8, len(x.levels))
		}
		// Float64() < 0.5 ⇔ the top bit of the raw draw is clear.
		if local.Uint64() < 1<<63 {
			x.faults[i] = faultSA0
			x.levels[i] = 0
			fm.SA0++
		} else {
			x.faults[i] = faultSA1
			x.levels[i] = x.MaxLevel()
			fm.SA1++
		}
	}
	*rng = local
	return fm, nil
}

// injectStuckFaultsV2 is the sampler-v2 injection: one exact binomial
// count draw, then Floyd's sampling for the distinct fault positions, with
// one polarity deviate per fault interleaved after its position draw. The
// consumed sequence is one Binomial draw plus, per fault, one bounded
// position draw (an Intn call; its raw Uint64 consumption can vary on
// Lemire rejection) and one polarity draw — deterministic per generator
// state and identical to the CountStuckFaults v2 path, so deferred
// injections replay exactly from a clone.
func (x *Crossbar) injectStuckFaultsV2(rate float64, rng *stats.RNG) FaultMap {
	var fm FaultMap
	k := rng.Binomial(len(x.levels), rate)
	if k == 0 {
		return fm
	}
	if x.faults == nil {
		x.faults = make([]int8, len(x.levels))
	}
	maxLevel := x.MaxLevel()
	rng.SampleK(len(x.levels), k, func(pos int) {
		// Polarity draw per fault: top bit clear ⇔ Float64() < 0.5, the
		// same 50/50 split rule as the v1 stream.
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
	return fm
}

// StuckFaultCount returns the stuck-cell total an injection over n cells
// would realise under the v2/v3 regimes, drawing only the Binomial(n, rate)
// count. The invariant that makes this exact: the count is the first draw of
// the v2/v3 injection (injectStuckFaultsV2 takes the binomial before any
// position or polarity draw), so the total is fixed before the O(faults)
// draws begin. The generator is left mid-sequence — callers use it on a
// substream they discard, and replay the injection from a clone taken
// before the call. v1 interleaves the count with the cell walk, so it has
// no such shortcut; use CountStuckFaults there.
func StuckFaultCount(n int, rate float64, rng *stats.RNG) (int, error) {
	if rate < 0 || rate > 1 {
		return 0, fmt.Errorf("reram: fault rate %v outside [0,1]", rate)
	}
	if rng.Sampler() == stats.SamplerV1 {
		return 0, fmt.Errorf("reram: count-only fault draw needs the v2/v3 regime, got %v", rng.Sampler())
	}
	return rng.Binomial(n, rate), nil
}

// CountStuckFaults draws the same random sequence InjectStuckFaults would
// consume over n cells and returns the fault map it would realise, without
// touching any array. Package core uses it under the serial v1/v2 regimes
// to account faults on crossbars that are never computed on, deferring the
// physical injection until a crossbar is materialised (replayed from a
// generator clone snapshotted before this call); the generator must end
// where the injection would leave it, because the next crossbar draws from
// the same stream. Like the injection itself, the draw algorithm — and
// therefore the cost, O(cells) under v1 vs O(faults) under v2 — follows
// the generator's sampling regime (v2 and v3 share the sublinear path).
func CountStuckFaults(n int, rate float64, rng *stats.RNG) (FaultMap, error) {
	if rate < 0 || rate > 1 {
		return FaultMap{}, fmt.Errorf("reram: fault rate %v outside [0,1]", rate)
	}
	var fm FaultMap
	if rng.Sampler() != stats.SamplerV1 {
		// Identical consumption to injectStuckFaultsV2: the binomial count,
		// k position draws (Floyd's consumes exactly one bounded deviate
		// per selection regardless of collisions), and k polarity draws in
		// the same interleaved order. Only the array mutation is skipped.
		k := rng.Binomial(n, rate)
		rng.SampleK(n, k, func(int) {
			if rng.Uint64() < 1<<63 {
				fm.SA0++
			} else {
				fm.SA1++
			}
		})
		return fm, nil
	}
	// Same register-resident, division-free draw loop as InjectStuckFaults
	// (see the equivalence argument there); this is the hottest loop of the
	// defect sweep, which walks millions of cells per trial. At low rates
	// most 4-cell blocks contain no fault, so the loop speculates a clear
	// block of four independent draws (the mixes pipeline) and replays the
	// block from a generator snapshot on a hit — the consumed sequence is
	// identical either way. High rates hit most blocks, where speculation
	// only adds replays, so they take the scalar loop directly.
	local := *rng
	thresh := rate * float64(1<<53)
	i := 0
	if rate <= 0.05 {
		for n-i >= 4 {
			snap := local
			u0 := local.Uint64()
			u1 := local.Uint64()
			u2 := local.Uint64()
			u3 := local.Uint64()
			if float64(u0>>11) >= thresh && float64(u1>>11) >= thresh &&
				float64(u2>>11) >= thresh && float64(u3>>11) >= thresh {
				i += 4
				continue
			}
			local = snap
			for k := 0; k < 4; k++ {
				if u := local.Uint64(); float64(u>>11) >= thresh {
					continue
				}
				if local.Uint64() < 1<<63 {
					fm.SA0++
				} else {
					fm.SA1++
				}
			}
			i += 4
		}
	}
	for ; i < n; i++ {
		u := local.Uint64()
		if float64(u>>11) >= thresh {
			continue
		}
		if local.Uint64() < 1<<63 {
			fm.SA0++
		} else {
			fm.SA1++
		}
	}
	*rng = local
	return fm, nil
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
