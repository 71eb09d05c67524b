// Package timing is the cycle-level event-driven backend of the TIMELY
// reproduction, in the DRAMsim3/Ramulator idiom: execution is decomposed
// into a PIM_MAC-style command set, every command occupies exactly one
// exclusive hardware unit for a duration derived from internal/params, and
// per-unit command queues issue in ready-time order. Where the analytic
// models (internal/accel) reduce a network to one closed-form steady-state
// throughput number, this package simulates the pipeline filling, draining
// and contending in virtual time, and reports what the closed form cannot:
// per-image latency distributions, per-layer stalls and per-unit
// utilizations.
//
// The command set mirrors the §IV dataflow of one O2IR-mapped wave:
//
//	input load → X-subBuf read → DTC convert → analog MAC → TDC convert → output write
//
// plus inter-sub-chip transfers between consecutive pipeline stages:
// dedicated per-instance neighbour channels within a chip, and one shared
// HyperTransport port per chip where a stage boundary crosses a chip edge —
// the shared resource on which duplicated instances contend. Waves are
// issued per the grid-slot schedule the placement implies
// (mapping.Placement.CyclesPerImage waves per image per instance), coalesced
// into batches so command counts stay bounded on ImageNet-scale layers.
package timing

import (
	"repro/internal/params"
	"repro/internal/trace"
)

// Kind enumerates the command set. The first six kinds are the intra-sub-
// chip wave pipeline in dataflow order; KindTransfer moves a finished
// layer's outputs to the next stage's sub-chip group over a shared link.
type Kind int

const (
	// KindInputLoad reads a wave's fresh operands from the L1 input buffer.
	KindInputLoad Kind = iota
	// KindXSubBufRead delivers reused operands through the cascaded
	// X-subBuf shift chain (O2IR principle 3).
	KindXSubBufRead
	// KindDTCConvert performs the γ serialized 8-bit DTC conversions that
	// feed one wave into the time domain.
	KindDTCConvert
	// KindAnalogMAC is one analog MAC wave: crossbar dot products, charging
	// and comparison.
	KindAnalogMAC
	// KindTDCConvert performs the γ serialized TDC conversions digitising
	// one wave's partial sums.
	KindTDCConvert
	// KindOutputWrite writes a wave's results back to the L1 output buffer.
	KindOutputWrite
	// KindTransfer moves a layer's outputs to the next pipeline stage over
	// the shared inter-sub-chip link.
	KindTransfer
	// NumKinds is the command-set size.
	NumKinds
)

var kindNames = [NumKinds]string{
	"input_load", "xsubbuf_read", "dtc_convert",
	"analog_mac", "tdc_convert", "output_write", "transfer",
}

// String returns the command kind's wire name.
func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return "kind(?)"
	}
	return kindNames[k]
}

// TraceStage maps a command kind onto the intra-sub-chip pipeline stage it
// realises in the shared trace vocabulary; ok is false for commands outside
// the five-stage pipeline (transfers).
func (k Kind) TraceStage() (trace.Stage, bool) {
	switch k {
	case KindInputLoad, KindXSubBufRead:
		return trace.StageRead, true
	case KindDTCConvert:
		return trace.StageDTC, true
	case KindAnalogMAC:
		return trace.StageAnalog, true
	case KindTDCConvert:
		return trace.StageTDC, true
	case KindOutputWrite:
		return trace.StageWrite, true
	}
	return 0, false
}

// Link geometry. The paper does not publish inter-sub-chip link widths, so
// the reproduction calibrates two channel classes against the dataflow it
// does publish:
//
//   - Intra-chip, consecutive pipeline stages stream outputs over dedicated
//     neighbour channels — data movement stays local, the paper's core
//     claim. LocalLanes is sized at eight crossbar rows of 8-bit values per
//     40 MHz digital clock (params.ClockRateHz), comfortably above the L1
//     streaming rate the O2IR schedule sustains, so a healthy pipeline is
//     never throttled by its own neighbour traffic.
//   - Stage boundaries that cross a chip edge ride the chip's single shared
//     HyperTransport port (one per source chip, HyperLanes wide) — the one
//     genuinely shared resource, where duplicated instances and multiple
//     crossing boundaries contend.
const (
	// LocalLanes is the 8-bit values one intra-chip neighbour-channel beat
	// moves (8 × 256 crossbar-row values; calibrated, see above).
	LocalLanes = 8 * params.CrossbarSize
	// HyperLanes is the 8-bit values one shared inter-chip HyperTransport
	// beat moves.
	HyperLanes = params.CrossbarSize
	// TransferBeatPS is one link beat in ps (one 40 MHz digital clock).
	TransferBeatPS = int64(1e12 / params.ClockRateHz)
)

// Constraints is the per-command timing-constraint table of one TIMELY
// configuration: how long each command kind occupies its unit, per wave
// (per beat for transfers). All values are picoseconds.
type Constraints struct {
	// PerWavePS[k] is the unit occupancy of one wave's command of kind k.
	// For KindTransfer the entry is the per-beat occupancy instead.
	PerWavePS [NumKinds]int64
	// CyclePS is the nominal pipeline-cycle time γ·25 ns — the initiation
	// interval the analytic model assumes. The physical bottleneck of the
	// simulated pipeline is max over the intra kinds of PerWavePS, which
	// equals CyclePS at the Table II design point (γ = 8) but exceeds it
	// for γ ≤ 6, where the 160 ns output-write stage takes over — exactly
	// the regime difference the timing backend exists to expose.
	CyclePS int64
}

// NewConstraints derives the timing-constraint table from a TIMELY
// configuration: §VI-A stage latencies for load/analog/write, γ serialized
// 25 ns conversions for DTC/TDC, the cascaded X-subBuf chain for shifts,
// and the 40 MHz link beat for transfers.
func NewConstraints(cfg params.TimelyConfig) Constraints {
	var c Constraints
	c.PerWavePS[KindInputLoad] = int64(params.LatencyInputRead)
	// The longest legal shift chain: MaxCascadedXSubBufs buffers of one
	// unit delay plus its design margin each (§V).
	c.PerWavePS[KindXSubBufRead] = int64(params.MaxCascadedXSubBufs * (params.TDel + params.TDelMargin))
	c.PerWavePS[KindDTCConvert] = int64(cfg.Gamma) * int64(params.DTCConversionTime)
	c.PerWavePS[KindAnalogMAC] = int64(params.LatencyAnalog)
	c.PerWavePS[KindTDCConvert] = int64(cfg.Gamma) * int64(params.DTCConversionTime)
	c.PerWavePS[KindOutputWrite] = int64(params.LatencyOutputWrite)
	c.PerWavePS[KindTransfer] = TransferBeatPS
	c.CyclePS = int64(cfg.CycleTime())
	return c
}

// TransferPS returns the occupancy of moving n 8-bit values over a channel
// of the given lane width (LocalLanes or HyperLanes).
func (c Constraints) TransferPS(values, lanes int64) int64 {
	if values <= 0 || lanes <= 0 {
		return 0
	}
	beats := (values + lanes - 1) / lanes
	return beats * c.PerWavePS[KindTransfer]
}
