// Package compiler implements the compiler stage of the software-hardware
// interface of §IV-F: it lowers a network onto TIMELY sub-chips as
// weight-mapping and input-datapath commands from the shared mapping.Plan.
//
// The paper describes three stages — "the CNN/DNN is loaded into an NN
// parser that automatically extracts model parameters"; "a compiler
// optimizes mapping strategies ... and generates execution commands"; "the
// controller loads the commands ... to (1) write pre-trained weights to the
// mapped addresses, and (2) configure peripheral circuits for setting up
// input paths". The parser is model.Spec.Compile, the declarative network
// format every other entry point uses, and Compile is the compiler. The
// functional sub-chips are programmed and run by workload.AnalogCNN and
// workload.AnalogMLP, the one functional executor every study and the sim
// functional backend use.
package compiler

import (
	"fmt"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/params"
)

// OpCode enumerates controller commands (§IV-F: weight mapping and input
// data-path configuration).
type OpCode int

const (
	// OpWriteWeights programs one layer's weights into a sub-chip.
	OpWriteWeights OpCode = iota
	// OpConfigInputPath wires a sub-chip's DTC inputs to a source layer's
	// outputs (or the chip input for the first layer).
	OpConfigInputPath
	// OpConfigPooling routes a sub-chip's outputs through the pooling unit.
	OpConfigPooling
	// OpSetScale programs the per-layer charging full-scale (the Rmin
	// choice of §IV-C) as a requantisation shift.
	OpSetScale
)

// String returns the opcode's mnemonic.
func (o OpCode) String() string {
	switch o {
	case OpWriteWeights:
		return "write-weights"
	case OpConfigInputPath:
		return "config-input-path"
	case OpConfigPooling:
		return "config-pooling"
	case OpSetScale:
		return "set-scale"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Command is one controller instruction.
type Command struct {
	Op OpCode
	// Layer names the network layer the command serves.
	Layer string
	// SubChip is the target sub-chip index (-1 for chip-level commands).
	SubChip int
	// Source names the producing layer for input-path commands ("" = chip
	// input).
	Source string
	// Arg carries the op-specific parameter (pool kernel, scale shift, ...).
	Arg int
}

// Program is the compiled command stream plus its resource summary.
type Program struct {
	Network  *model.Network
	Commands []Command
	// SubChips is the number of sub-chips the program occupies.
	SubChips int
}

// Compile lowers a network onto TIMELY sub-chips through mapping.Lower —
// the §IV-E "layer by layer weight mapping strategy" — and emits one
// pipeline copy's commands: each weighted layer is written at its stage's
// first sub-chip, its input path is wired to the previous stage, and pool
// layers route the next stage's inputs (or, trailing, the final outputs).
// A layer that spans several sub-chips is written at the first of them.
func Compile(n *model.Network, cfg params.TimelyConfig) *Program {
	plan := mapping.Lower(n, cfg)
	p := &Program{Network: n, SubChips: plan.Need}
	stage, prev, sc := -1, "", 0 // last weighted stage, its layer and sub-chip
	var pendingPool []model.Layer
	for _, l := range n.Layers {
		switch {
		case l.IsWeighted():
			stage++
			sc = plan.First[stage]
			p.Commands = append(p.Commands,
				Command{Op: OpWriteWeights, Layer: l.Name, SubChip: sc},
				Command{Op: OpConfigInputPath, Layer: l.Name, SubChip: sc, Source: prev},
				Command{Op: OpSetScale, Layer: l.Name, SubChip: sc},
			)
			// Attach any pooling that preceded this layer to its input path.
			for _, pool := range pendingPool {
				p.Commands = append(p.Commands, Command{
					Op: OpConfigPooling, Layer: l.Name, SubChip: sc, Arg: pool.Z,
				})
			}
			pendingPool = nil
			prev = l.Name
		case l.Kind == model.KindMaxPool || l.Kind == model.KindAvgPool:
			pendingPool = append(pendingPool, l)
		}
	}
	// Trailing pool layers route the final outputs.
	for _, pool := range pendingPool {
		p.Commands = append(p.Commands, Command{
			Op: OpConfigPooling, Layer: prev, SubChip: sc, Arg: pool.Z,
		})
	}
	return p
}
