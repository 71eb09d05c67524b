// Package sim is the public SDK facade of the TIMELY (ISCA 2020)
// reproduction: one stable API over the three analytic accelerator models
// (TIMELY, PRIME, ISAAC) and the functional noise/fault Monte-Carlo
// simulator that live under internal/.
//
// Backends are constructed through a string-keyed registry with functional
// options:
//
//	b, err := sim.Open("timely", sim.WithBits(8), sim.WithChips(16))
//	res, err := b.Evaluate(ctx, "VGG-D")
//
// or, in one step from a JSON-serializable request (the form the timelyd
// evaluation service accepts over HTTP):
//
//	res, err := sim.Evaluate(ctx, &sim.EvalRequest{Backend: "timely", Network: "VGG-D"})
//
// Every evaluation path honours ctx: cancellation and deadlines propagate
// down into the experiment worker pools and the parallel Monte-Carlo inner
// loops, which check the context between work units. Results are
// deterministic per configuration — a context that never fires does not
// change a single output value at any concurrency level.
//
// The four built-in backends are "timely", "prime" and "isaac" (analytic
// energy/throughput/area evaluation of the Table III benchmark networks)
// and "functional" (Monte-Carlo accuracy of the synthetic "mlp" and "cnn"
// workloads on the functional analog datapath, with injected circuit noise
// and stuck-at faults). Evaluations of identical (backend, deployment,
// network) triples are memoized process-wide and shared with the
// experiment harness, so concurrent callers compute each heavy input
// exactly once.
//
// The analytic backends are network-agnostic: beyond the zoo they
// evaluate arbitrary conv/fc/pool networks described declaratively as a
// NetworkSpec — inline on a request (EvalRequest.Spec), registered by
// name (RegisterNetwork), or exported from a zoo benchmark as a template
// (ZooSpec). Specs compile through the same validated shape-inference
// path as the built-in zoo, and custom evaluations are memoized under a
// canonical spec hash.
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
	// ErrUnknownBackend reports an Open or Evaluate naming no registered
	// backend.
	ErrUnknownBackend = errors.New("sim: unknown backend")
	// ErrUnknownNetwork reports an Evaluate naming a network the backend
	// cannot run.
	ErrUnknownNetwork = errors.New("sim: unknown network")
	// ErrInvalidOption reports an option that is out of range or does not
	// apply to the opened backend.
	ErrInvalidOption = errors.New("sim: invalid option")
	// ErrDuplicateBackend reports a Register under an already-taken name.
	ErrDuplicateBackend = errors.New("sim: backend already registered")
	// ErrInvalidSpec reports a custom network spec that fails validation;
	// it wraps the *SpecError naming the offending layer and field.
	ErrInvalidSpec = errors.New("sim: invalid network spec")
	// ErrDuplicateNetwork reports a RegisterNetwork under a name already
	// taken by a different network (custom or built-in).
	ErrDuplicateNetwork = errors.New("sim: network already registered")
	// ErrRegistryFull reports a RegisterNetwork rejected because the
	// process-wide custom-network registry reached its capacity.
	ErrRegistryFull = errors.New("sim: custom network registry is full")
)

// Backend evaluates networks on one simulator configuration. A Backend is
// immutable after Open and safe for concurrent use.
type Backend interface {
	// Name returns the registry key the backend was opened under.
	Name() string
	// Networks lists the model names Evaluate accepts, sorted.
	Networks() []string
	// Evaluate runs one network and returns its typed result. It honours
	// ctx between work units and returns ctx's error once it fires.
	Evaluate(ctx context.Context, network string) (*EvalResult, error)
}

// Designer is implemented by backends that expose their physical design
// point (the "timely" backend): per-sub-chip cycle time, area and peak
// throughput under the configured sharing factor γ and sub-chip count χ.
type Designer interface {
	Design() *Design
}

// Design is a backend's physical design point (Table II derived).
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
	// Backend is the registry key ("timely", "prime", "isaac", "functional").
	Backend string `json:"backend"`
	// Network names the model: a Table III benchmark or a registered
	// custom network for the analytic backends, "mlp" or "cnn" for the
	// functional one. Ignored (but checked for agreement) when Spec is set.
	Network string `json:"network"`
	// Spec carries an inline custom network. When set, the evaluation
	// compiles it and runs it on the named backend — the backend must
	// implement SpecEvaluator (the analytic backends do). Network, if also
	// set, must match the spec's name.
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
	// the pipeline (timing); see WithImages.
	Images int `json:"images,omitempty"`
}

// options converts the request's set fields to functional options.
func (r *EvalRequest) options() []Option {
	var opts []Option
	if r.Bits != 0 {
		opts = append(opts, WithBits(r.Bits))
	}
	if r.Chips != 0 {
		opts = append(opts, WithChips(r.Chips))
	}
	if r.SubChips != 0 {
		opts = append(opts, WithSubChips(r.SubChips))
	}
	if r.Gamma != 0 {
		opts = append(opts, WithGamma(r.Gamma))
	}
	if r.NoisePS != nil {
		opts = append(opts, WithNoise(*r.NoisePS))
	}
	if r.FaultRate != nil {
		opts = append(opts, WithFaultRate(*r.FaultRate))
	}
	if r.Seed != nil {
		opts = append(opts, WithSeed(*r.Seed))
	}
	if r.Trials != 0 {
		opts = append(opts, WithTrials(r.Trials))
	}
	if r.Images != 0 {
		opts = append(opts, WithImages(r.Images))
	}
	return opts
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

// Evaluate opens req.Backend with the request's options and evaluates
// req.Network — or, when req.Spec is set, compiles and evaluates the
// inline custom network. It is the one-call form of the facade, and the
// exact semantics of timelyd's POST /v1/evaluate. The variadic extra
// options apply after the request's own — the hook callers use to attach
// non-serializable options such as WithTraceSink to a JSON request.
func Evaluate(ctx context.Context, req *EvalRequest, extra ...Option) (*EvalResult, error) {
	if req.Backend == "" {
		return nil, fmt.Errorf("%w: request names no backend", ErrUnknownBackend)
	}
	if req.Spec == nil && req.Network == "" {
		return nil, fmt.Errorf("%w: request names no network and carries no spec", ErrUnknownNetwork)
	}
	if req.Spec != nil && req.Network != "" && req.Network != req.Spec.Name {
		return nil, fmt.Errorf("%w: request names network %q but the inline spec is %q",
			ErrInvalidSpec, req.Network, req.Spec.Name)
	}
	b, err := Open(req.Backend, append(req.options(), extra...)...)
	if err != nil {
		return nil, err
	}
	if req.Spec != nil {
		se, ok := b.(SpecEvaluator)
		if !ok {
			return nil, fmt.Errorf("%w: the %q backend does not evaluate custom network specs",
				ErrInvalidOption, req.Backend)
		}
		return se.EvaluateSpec(ctx, req.Spec)
	}
	return b.Evaluate(ctx, req.Network)
}

// elapsedMS is shared result-stamping for the backend implementations.
func elapsedMS(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}
