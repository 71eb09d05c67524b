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
// network's experiment-suite default.
func (f *functional) seed(network string) uint64 {
	switch {
	case f.cfg.IsSet(optSeed):
		return f.cfg.Seed
	case network == "cnn":
		return defaultCNNSeed
	}
	return defaultMLPSeed
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
	out, err := f.evaluateSeeds(ctx, network, []uint64{f.seed(network)})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// evaluateSeeds runs one workload under f's configuration for every seed
// as one fused trial grid (experiments.AnalogMLPAccuracyBatch /
// AnalogCNNAccuracyBatch), one result per seed in order. It is the one
// functional path: a single request is a group of one, and a fused
// service group (EvaluateBatch) passes its members' seeds, so batched
// responses cannot drift from unbatched ones. Every result reports the
// group's wall clock as ElapsedMS.
func (f *functional) evaluateSeeds(ctx context.Context, network string, seeds []uint64) ([]*EvalResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	var acc []*AccuracyStats
	switch network {
	case "mlp":
		if f.cfg.IsSet(optFaultRate) {
			return nil, fmt.Errorf("%w: fault injection applies to the \"cnn\" workload, not %q",
				ErrInvalidOption, network)
		}
		rs, err := experiments.AnalogMLPAccuracyBatch(ctx, seeds, f.cfg.Trials, f.cfg.NoisePS)
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			acc = append(acc, mlpAccuracyStats(r))
		}
	case "cnn":
		if f.cfg.IsSet(optNoise) {
			return nil, fmt.Errorf("%w: timing noise applies to the \"mlp\" workload, not %q",
				ErrInvalidOption, network)
		}
		rs, err := experiments.AnalogCNNAccuracyBatch(ctx, seeds, f.cfg.Trials, f.cfg.FaultRate)
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			acc = append(acc, cnnAccuracyStats(r))
		}
	default:
		return nil, fmt.Errorf("%w: %q (the functional backend runs \"mlp\" or \"cnn\")",
			ErrUnknownNetwork, network)
	}
	elapsed := elapsedMS(start)
	out := make([]*EvalResult, len(acc))
	for i, a := range acc {
		out[i] = &EvalResult{Backend: "functional", Network: network, Accuracy: a, ElapsedMS: elapsed}
	}
	return out, nil
}

// mlpAccuracyStats converts the §VI-B accuracy study's result to the wire
// form.
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
