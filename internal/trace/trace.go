// Package trace provides a cycle-level simulation of TIMELY's five-stage
// intra-sub-chip pipeline (§IV-E: input read → DTC → analog computation →
// TDC → output write) and the span vocabulary the event-driven timing
// backend (internal/timing) emits. The discrete-event model reproduces the
// paper's narration ("the first data ... is written back to an output
// buffer at the fifth cycle; meanwhile, at the fifth cycle, the fifth,
// fourth, third, and second data is read, converted by a DTC, computed
// ...") and serves the timing engine's tests as an oracle.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Stage enumerates the intra-sub-chip pipeline stages in dataflow order.
type Stage int

const (
	// StageRead reads inputs from the input buffer.
	StageRead Stage = iota
	// StageDTC converts digital inputs to time signals.
	StageDTC
	// StageAnalog covers dot products, charging and comparison.
	StageAnalog
	// StageTDC converts time psums back to digital.
	StageTDC
	// StageWrite writes results to the output buffer.
	StageWrite
	// NumStages is the pipeline depth (5).
	NumStages
)

var stageNames = [NumStages]string{"read", "dtc", "analog", "tdc", "write"}

// String returns the pipeline stage's name.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// Event is one (cycle, stage, item) occupancy record. Items and cycles are
// 1-based, matching the paper's "first data ... at the first cycle".
type Event struct {
	Cycle int64
	Stage Stage
	Item  int64
}

// Span is one unit-occupancy interval in real time — the shared event
// vocabulary between the closed-form pipeline cross-checks in this package
// and the event-driven timing backend (internal/timing). A Span says: unit
// U performed operation Op for waves [Wave0, Wave0+Waves) of image Image
// during [StartPS, EndPS).
type Span struct {
	// Unit names the occupied resource (e.g. "conv1_1#0/dtc_convert" or
	// "link:conv1_1->conv2_1").
	Unit string `json:"unit"`
	// Op is the command kind performed ("input_load", "dtc_convert", ...).
	Op string `json:"op"`
	// Stage is the intra-sub-chip pipeline stage the operation realises
	// ("read", "dtc", "analog", "tdc", "write"), or "" for operations
	// outside the five-stage pipeline (inter-sub-chip transfers).
	Stage string `json:"stage,omitempty"`
	// Layer names the network layer the work belongs to.
	Layer string `json:"layer,omitempty"`
	// Image is the 0-based image index the work belongs to.
	Image int `json:"image"`
	// Wave0 and Waves give the pipeline-wave range the span covers.
	Wave0 int64 `json:"wave0"`
	Waves int64 `json:"waves"`
	// StartPS and EndPS bound the occupancy in picoseconds.
	StartPS int64 `json:"start_ps"`
	EndPS   int64 `json:"end_ps"`
}

// Span converts one closed-form intra-pipeline occupancy event into the
// shared Span vocabulary, placing it on the real-time axis with the given
// pipeline-cycle time. Items map to waves (one item = one wave of one
// image 0).
func (e Event) Span(cyclePS int64) Span {
	return Span{
		Unit:    "intra/" + e.Stage.String(),
		Op:      e.Stage.String(),
		Stage:   e.Stage.String(),
		Wave0:   e.Item - 1,
		Waves:   1,
		StartPS: (e.Cycle - 1) * cyclePS,
		EndPS:   e.Cycle * cyclePS,
	}
}

// Log collects spans in emission order and serializes them with their
// run metadata — the format `timely evaluate -trace out.json` writes.
type Log struct {
	// Source names the emitting simulator ("timing", "intra").
	Source string `json:"source"`
	// Network names the simulated model, when one applies.
	Network string `json:"network,omitempty"`
	// CyclePS is the pipeline-cycle time of the run in ps.
	CyclePS float64 `json:"cycle_ps,omitempty"`
	// Spans is the event list, in completion order.
	Spans []Span `json:"spans"`
}

// Emit appends one span; a simulation emits into the log through it.
func (l *Log) Emit(s Span) { l.Spans = append(l.Spans, s) }

// WriteJSON serializes the log as one indented JSON document.
func (l *Log) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(l)
}

// IntraPipeline models the five-stage pipeline over a stream of data items.
type IntraPipeline struct {
	// Items is the number of data items pushed through.
	Items int64
}

// Makespan returns the total cycles to drain the pipeline: items + depth − 1.
func (p IntraPipeline) Makespan() int64 {
	if p.Items <= 0 {
		return 0
	}
	return p.Items + int64(NumStages) - 1
}

// Simulate walks every occupancy event in cycle order. Item i occupies
// stage s during cycle i+s (1-based), so the first item writes back at
// cycle 5 — exactly the §IV-E narration.
func (p IntraPipeline) Simulate(visit func(Event)) {
	for cycle := int64(1); cycle <= p.Makespan(); cycle++ {
		for s := Stage(0); s < NumStages; s++ {
			item := cycle - int64(s)
			if item >= 1 && item <= p.Items {
				visit(Event{Cycle: cycle, Stage: s, Item: item})
			}
		}
	}
}
