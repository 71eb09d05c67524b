// Package sim is the public SDK facade of the TIMELY (ISCA 2020)
// reproduction: one stable API over the three analytic accelerator models
// (TIMELY, PRIME, ISAAC), the functional noise/fault Monte-Carlo simulator
// and the event-driven timing simulator that live under internal/.
//
// An evaluation is one JSON-serializable request — the form the timelyd
// evaluation service accepts over HTTP — and one call:
//
//	res, err := sim.Evaluate(ctx, &sim.EvalRequest{Backend: "timely", Network: "VGG-D", Chips: 16})
//
// Evaluate, EvaluateBatch and EvalRequest.Keys validate a request through
// one shared step, so an invalid request fails the same way everywhere,
// with a typed error (ErrInvalidOption and friends), before any work runs.
// DesignPoint reports the physical design a "timely" request configures.
//
// Every evaluation path honours ctx: cancellation and deadlines propagate
// down into the experiment worker pools and the parallel Monte-Carlo inner
// loops, which check the context between work units. Results are
// deterministic per configuration — a context that never fires does not
// change a single output value at any concurrency level.
//
// The five backends are "timely", "prime" and "isaac" (analytic
// energy/throughput/area evaluation of the Table III benchmark networks),
// "functional" (Monte-Carlo accuracy of the synthetic "mlp" and "cnn"
// workloads on the functional analog datapath, with injected circuit noise
// and stuck-at faults) and "timing" (the cycle-level event-driven
// simulation of a TIMELY deployment). Evaluations of identical (backend,
// deployment, network) triples are memoized process-wide and shared with
// the experiment harness, so concurrent callers compute each heavy input
// exactly once.
//
// The analytic and timing backends are network-agnostic: beyond the zoo
// they evaluate arbitrary conv/fc/pool networks described declaratively as
// a NetworkSpec — inline on a request (EvalRequest.Spec), registered by
// name (RegisterNetwork, or a Registry a service owns, which resolves a
// name into its inline spec), or exported from a zoo benchmark as a
// template (ZooSpec). Specs compile through the same validated
// shape-inference path as the built-in zoo, and custom evaluations are
// memoized under a canonical spec hash.
package sim

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Sentinel errors wrapped by the facade, so callers (e.g. the timelyd
// HTTP service) can map failure classes without string matching.
var (
	// ErrUnknownBackend reports a request naming no known backend.
	ErrUnknownBackend = errors.New("sim: unknown backend")
	// ErrUnknownNetwork reports an Evaluate naming a network the backend
	// cannot run.
	ErrUnknownNetwork = errors.New("sim: unknown network")
	// ErrInvalidOption reports a request field that is out of range or
	// does not apply to the request's backend.
	ErrInvalidOption = errors.New("sim: invalid option")
	// ErrInvalidSpec reports a custom network spec that fails validation;
	// it wraps the *SpecError naming the offending layer and field.
	ErrInvalidSpec = errors.New("sim: invalid network spec")
	// ErrDuplicateNetwork reports a RegisterNetwork under a name already
	// taken by a different network (custom or built-in).
	ErrDuplicateNetwork = errors.New("sim: network already registered")
	// ErrRegistryFull reports a registration rejected because the
	// custom-network registry reached its capacity.
	ErrRegistryFull = errors.New("sim: custom network registry is full")
)

// Design is a TIMELY physical design point (Table II derived).
type Design struct {
	// Bits is the operand precision the design is evaluated at.
	Bits int `json:"bits"`
	// SubChipsPerChip is χ.
	SubChipsPerChip int `json:"sub_chips_per_chip"`
	// Gamma is the DTC/TDC sharing factor.
	Gamma int `json:"gamma"`
	// CycleNS is the pipeline cycle time in ns (γ × 25 ns).
	CycleNS float64 `json:"cycle_ns"`
	// SubChipAreaMM2 / ChipAreaMM2 are silicon areas with the interface
	// banks resized to the sharing factor.
	SubChipAreaMM2 float64 `json:"sub_chip_area_mm2"`
	ChipAreaMM2    float64 `json:"chip_area_mm2"`
	// PeakTOPSPerSubChip counts one MAC as one op.
	PeakTOPSPerSubChip float64 `json:"peak_tops_per_sub_chip"`
	// DensityTOPsPerMM2 is the resulting computational density.
	DensityTOPsPerMM2 float64 `json:"density_tops_per_mm2"`
}

// EvalRequest names one evaluation: which backend, which network, and any
// configuration overrides. The zero value of every optional field means
// "backend default"; pointer fields distinguish an explicit zero (e.g.
// noise_ps: 0 is an ideal-timing run) from an absent one.
type EvalRequest struct {
	// Backend names the evaluator: "timely", "prime", "isaac",
	// "functional" or "timing" (see Backends).
	Backend string `json:"backend"`
	// Network names the model: a Table III benchmark or a registered
	// custom network for the analytic backends, "mlp" or "cnn" for the
	// functional one. Ignored (but checked for agreement) when Spec is set.
	Network string `json:"network"`
	// Spec carries an inline custom network. When set, the evaluation
	// compiles it and runs it on the named backend — any backend but
	// "functional". Network, if also set, must match the spec's name.
	Spec *NetworkSpec `json:"spec,omitempty"`
	// Bits is TIMELY's operand precision (8 or 16).
	Bits int `json:"bits,omitempty"`
	// Chips is the deployment size.
	Chips int `json:"chips,omitempty"`
	// SubChips overrides χ, the sub-chips per chip (timely only).
	SubChips int `json:"sub_chips,omitempty"`
	// Gamma overrides the DTC/TDC sharing factor (timely only).
	Gamma int `json:"gamma,omitempty"`
	// NoisePS is the per-X-subBuf timing error ε in ps (functional "mlp").
	NoisePS *float64 `json:"noise_ps,omitempty"`
	// FaultRate is the stuck-at cell fraction (functional "cnn").
	FaultRate *float64 `json:"fault_rate,omitempty"`
	// Seed fixes the Monte-Carlo base seed (functional).
	Seed *uint64 `json:"seed,omitempty"`
	// Trials is the Monte-Carlo repeat count (functional).
	Trials int `json:"trials,omitempty"`
	// Images is the image count the event-driven simulation pushes through
	// the pipeline (timing). More images sharpen the steady-state
	// measurement and the latency percentiles at proportional simulation
	// cost; the backend widens the count as needed to cover at least three
	// full rounds of every replicated instance.
	Images int `json:"images,omitempty"`
	// Trace, when set, receives every command's realised unit occupancy as
	// the timing backend's event-driven simulation completes it — the
	// per-wave trace stream `timely evaluate -trace` serializes. The stream
	// is deterministic: equal requests emit identical spans in identical
	// order. It is not part of the wire form.
	Trace func(TraceSpan) `json:"-"`
}

// ComponentEnergy is one hardware component's share of an analytic energy
// ledger.
type ComponentEnergy struct {
	// Component names the unit (DTC conversions, L1 reads, ...).
	Component string `json:"component"`
	// Ops is the operation count per inference.
	Ops float64 `json:"ops"`
	// MilliJoules is the component's energy per inference.
	MilliJoules float64 `json:"mj"`
}

// ClassEnergy is the data-movement energy of one data class (inputs,
// partial sums, outputs) per inference.
type ClassEnergy struct {
	Class       string  `json:"class"`
	MilliJoules float64 `json:"mj"`
}

// AccuracyStats is the functional backend's Monte-Carlo accuracy result.
type AccuracyStats struct {
	// Float is the float32 reference test accuracy (mlp only).
	Float float64 `json:"float,omitempty"`
	// Int is the 8-bit integer reference accuracy.
	Int float64 `json:"int"`
	// Analog is the analog-datapath accuracy averaged over Trials.
	Analog float64 `json:"analog"`
	// AnalogP10/P50/P90 summarise the per-trial accuracy spread.
	AnalogP10 float64 `json:"analog_p10,omitempty"`
	AnalogP50 float64 `json:"analog_p50,omitempty"`
	AnalogP90 float64 `json:"analog_p90,omitempty"`
	// LossPP is Int − Analog in percentage points.
	LossPP float64 `json:"loss_pp"`
	// CascadeErrorPS is √12·ε against MarginPS, the DTC design margin
	// (mlp only).
	CascadeErrorPS float64 `json:"cascade_error_ps,omitempty"`
	MarginPS       float64 `json:"margin_ps,omitempty"`
	// Faults is the mean realised stuck-cell count per draw (cnn only).
	Faults int `json:"faults,omitempty"`
	// Trials is the Monte-Carlo repeat count.
	Trials int `json:"trials"`
	// Sampler is the stream contract the trials drew under (always "v3").
	Sampler string `json:"sampler,omitempty"`
}

// EvalResult is the JSON-serializable outcome of one evaluation. Analytic
// backends fill the energy/throughput/area fields; the functional backend
// fills Accuracy.
type EvalResult struct {
	Backend string `json:"backend"`
	Network string `json:"network"`
	// Chips is the deployment size evaluated (analytic backends).
	Chips int `json:"chips,omitempty"`
	// EnergyMJPerImage is the per-inference energy in millijoules.
	EnergyMJPerImage float64 `json:"energy_mj_per_image,omitempty"`
	// PowerWatts is the average power at steady-state throughput.
	PowerWatts float64 `json:"power_watts,omitempty"`
	// ImagesPerSec is the steady-state inference rate.
	ImagesPerSec float64 `json:"images_per_sec,omitempty"`
	// TOPsPerWatt is the achieved energy efficiency (1 op = 1 MAC).
	TOPsPerWatt float64 `json:"tops_per_watt,omitempty"`
	// AreaMM2 is the total deployment silicon area (timely only).
	AreaMM2 float64 `json:"area_mm2,omitempty"`
	// SpecHash is the canonical content hash of a custom network's layer
	// table — the key its evaluation is memoized under (custom networks
	// only; zoo benchmarks memoize by name).
	SpecHash string `json:"spec_hash,omitempty"`
	// Fits reports whether one instance of every layer fit the deployment
	// simultaneously (analytic backends).
	Fits *bool `json:"fits,omitempty"`
	// EnergyBreakdown lists the per-component ledger, heaviest detail the
	// paper's Fig. 9 panels are derived from.
	EnergyBreakdown []ComponentEnergy `json:"energy_breakdown,omitempty"`
	// MovementByClass splits data-movement energy by data type (Fig. 9(d)).
	MovementByClass []ClassEnergy `json:"movement_by_class,omitempty"`
	// Accuracy is the functional backend's Monte-Carlo study.
	Accuracy *AccuracyStats `json:"accuracy,omitempty"`
	// Timing is the event-driven backend's cycle-level measurement:
	// makespan, fill, per-image latency distribution, per-layer stalls and
	// per-unit utilizations ("timing" backend only).
	Timing *TimingStats `json:"timing,omitempty"`
	// ElapsedMS is the evaluation's wall-clock compute time.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Evaluate validates req and evaluates req.Network — or, when req.Spec is
// set, compiles and evaluates the inline custom network — on req.Backend.
// It is the exact semantics of timelyd's POST /v1/evaluate.
func Evaluate(ctx context.Context, req *EvalRequest) (*EvalResult, error) {
	c, err := req.resolve()
	if err != nil {
		return nil, err
	}
	switch c.backend {
	case "functional":
		out, err := evaluateSeeds(ctx, c, req.Network, []uint64{c.seed})
		if err != nil {
			return nil, err
		}
		return out[0], nil
	case "timing":
		return evaluateTiming(ctx, c, req)
	}
	return evaluateAnalytic(ctx, c, req)
}

// DesignPoint returns the physical design point a "timely" request
// configures: per-sub-chip cycle time, area and peak throughput under its
// sharing factor γ and sub-chip count χ. The request's options are
// validated as Evaluate validates them; its network is not consulted.
func DesignPoint(req *EvalRequest) (*Design, error) {
	if _, ok := backendFields[req.Backend]; ok && req.Backend != "timely" {
		return nil, fmt.Errorf("%w: the %q backend has no parameterised design point", ErrInvalidOption, req.Backend)
	}
	c, err := req.configure()
	if err != nil {
		return nil, err
	}
	return design(c), nil
}

// elapsedMS is shared result-stamping for the backend implementations.
func elapsedMS(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}
