package sim

import (
	"context"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
)

func init() {
	mustRegister("functional", newFunctional)
}

// Functional-backend Monte-Carlo defaults: the seeds align with the
// experiment suite's accuracy and defect studies, so a default facade
// evaluation shares their memoized trained classifiers.
const (
	defaultMLPSeed = 2020
	defaultCNNSeed = 5
)

// functional serves the noise/fault Monte-Carlo simulator: synthetic
// workloads trained in float, quantised onto TIMELY's 8-bit datapath and
// executed through the functional analog pipeline.
type functional struct {
	cfg Config
}

func newFunctional(cfg *Config) (Backend, error) {
	if err := cfg.reject("functional", optBits, optChips, optSubChips, optGamma, optImages, optTrace); err != nil {
		return nil, err
	}
	return &functional{cfg: *cfg}, nil
}

// Name implements Backend.
func (f *functional) Name() string { return "functional" }

// Networks implements Backend: the two synthetic §VI-B workloads.
func (f *functional) Networks() []string { return []string{"cnn", "mlp"} }

// seed returns the Monte-Carlo base seed: the explicit one, or the
// workload's experiment-suite default.
func (f *functional) seed(def uint64) uint64 {
	if f.cfg.IsSet(optSeed) {
		return f.cfg.Seed
	}
	return def
}

// Evaluate implements Backend.
//
// "mlp" is the §VI-B accuracy study: the noise-aware-trained synthetic
// classifier under injected circuit noise (WithNoise sweeps ε; faults do
// not apply). "cnn" is the stuck-at-fault study: the synthetic-image CNN
// mapped onto faulty crossbars (WithFaultRate sweeps the defect level;
// timing noise does not apply). Both are averaged over WithTrials
// independent Monte-Carlo draws and are deterministic per seed.
func (f *functional) Evaluate(ctx context.Context, network string) (*EvalResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	out := &EvalResult{Backend: "functional", Network: network}
	switch network {
	case "mlp":
		if f.cfg.IsSet(optFaultRate) {
			return nil, fmt.Errorf("%w: fault injection applies to the \"cnn\" workload, not %q",
				ErrInvalidOption, network)
		}
		r, err := experiments.AnalogMLPAccuracy(ctx, f.seed(defaultMLPSeed), f.cfg.Trials, f.cfg.NoisePS, stats.SamplerV3)
		if err != nil {
			return nil, err
		}
		out.Accuracy = mlpAccuracyStats(r)
	case "cnn":
		if f.cfg.IsSet(optNoise) {
			return nil, fmt.Errorf("%w: timing noise applies to the \"mlp\" workload, not %q",
				ErrInvalidOption, network)
		}
		r, err := experiments.AnalogCNNAccuracy(ctx, f.seed(defaultCNNSeed), f.cfg.Trials, f.cfg.FaultRate)
		if err != nil {
			return nil, err
		}
		out.Accuracy = cnnAccuracyStats(r)
	default:
		return nil, fmt.Errorf("%w: %q (the functional backend runs \"mlp\" or \"cnn\")",
			ErrUnknownNetwork, network)
	}
	out.ElapsedMS = elapsedMS(start)
	return out, nil
}

// mlpAccuracyStats converts the §VI-B accuracy study's result to the wire
// form — one assembly shared by the single and group evaluation paths, so
// batched responses cannot drift from unbatched ones.
func mlpAccuracyStats(r *experiments.AccuracyResult) *AccuracyStats {
	return &AccuracyStats{
		Float:          r.FloatAcc,
		Int:            r.IntAcc,
		Analog:         r.AnalogAcc,
		AnalogP10:      r.AccP10,
		AnalogP50:      r.AccP50,
		AnalogP90:      r.AccP90,
		LossPP:         r.Loss * 100,
		CascadeErrorPS: r.CascadeErrorPS,
		MarginPS:       r.MarginPS,
		Trials:         r.Trials,
		Sampler:        stats.SamplerV3.String(),
	}
}

// cnnAccuracyStats converts the defect study's result to the wire form.
func cnnAccuracyStats(r *experiments.DefectResult) *AccuracyStats {
	return &AccuracyStats{
		Int:       r.IntAcc,
		Analog:    r.AnalogAcc,
		AnalogP10: r.AccP10,
		AnalogP50: r.AccP50,
		AnalogP90: r.AccP90,
		LossPP:    (r.IntAcc - r.AnalogAcc) * 100,
		Faults:    r.Faults,
		Trials:    r.Trials,
		Sampler:   stats.SamplerV3.String(),
	}
}
