package sim

import (
	"context"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// evaluateSeeds is the functional backend: it runs one Monte-Carlo
// workload under c for every seed as one fused trial grid
// (experiments.AnalogMLPAccuracyBatch / AnalogCNNAccuracyBatch), one
// result per seed in order. It is the one functional path: a single
// request is a group of one, and a fused service group (EvaluateBatch)
// passes its members' seeds, so batched responses cannot drift from
// unbatched ones. Every result reports the group's wall clock as
// ElapsedMS.
//
// "mlp" is the §VI-B accuracy study: the noise-aware-trained synthetic
// classifier under injected circuit noise (noise_ps sweeps ε). "cnn" is
// the stuck-at-fault study: the synthetic-image CNN mapped onto faulty
// crossbars (fault_rate sweeps the defect level). Both average over the
// request's trials and are deterministic per seed.
func evaluateSeeds(ctx context.Context, c config, network string, seeds []uint64) ([]*EvalResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	var acc []*AccuracyStats
	switch network {
	case "mlp":
		rs, err := experiments.AnalogMLPAccuracyBatch(ctx, seeds, c.trials, c.noisePS)
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			acc = append(acc, mlpAccuracyStats(r))
		}
	default: // "cnn": resolve admits no other workload
		rs, err := experiments.AnalogCNNAccuracyBatch(ctx, seeds, c.trials, c.faultRate)
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			acc = append(acc, cnnAccuracyStats(r))
		}
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
