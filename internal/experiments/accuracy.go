package experiments

import (
	"context"
	"fmt"

	"repro/internal/analog"
	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/report"
	"repro/internal/stats"
)

// AccuracyResult is the §VI-B accuracy study on the synthetic workload.
type AccuracyResult struct {
	// FloatAcc / IntAcc are the float and 8-bit-integer reference test
	// accuracies; AnalogAcc the functional-TIMELY accuracy at the paper's
	// design-point noise, averaged over Trials Monte-Carlo seeds.
	FloatAcc, IntAcc, AnalogAcc float64
	// Loss is IntAcc − AnalogAcc (the paper claims ≤ 0.1 % on CNNs).
	Loss float64
	// CascadeErrorPS is √12·ε, against MarginPS (the DTC design margin).
	CascadeErrorPS, MarginPS float64
	// AccP10/AccP50/AccP90 summarise the per-trial analog-accuracy spread
	// (linear-interpolated percentiles over the Trials draws, computed
	// with one sort via stats.PercentilesInto).
	AccP10, AccP50, AccP90 float64
	// Trials is the Monte-Carlo repeat count.
	Trials int
}

// NoiseSweepPoint is one ε point of the noise ablation.
type NoiseSweepPoint struct {
	// EpsilonPS is the per-X-subBuf error; AnalogAcc the resulting accuracy.
	EpsilonPS float64
	AnalogAcc float64
	// WithinMargin reports whether √12·ε fits the design margin.
	WithinMargin bool
}

// RunAccuracy trains the synthetic classifier (memoized per seed, shared
// with RunNoiseSweep), quantises it to TIMELY's 8-bit datapath and measures
// the analog accuracy at the paper's design-point noise.
func RunAccuracy(ctx context.Context, seed uint64, trials int) (*AccuracyResult, error) {
	return AnalogMLPAccuracy(ctx, seed, trials, params.DefaultXSubBufSigma, stats.SamplerV3)
}

// AnalogMLPAccuracy is the generalized §VI-B accuracy study behind the
// public sim facade: the design-point methodology of RunAccuracy at an
// arbitrary per-X-subBuf error epsPS (in ps). Each Monte-Carlo trial draws
// its noise from the trial substream stats.NewTrialRNG(seed, trial), so
// results are deterministic per (seed, trials, epsPS) at any worker count;
// at the design-point epsilon it is byte-for-byte RunAccuracy. sampler
// must be stats.SamplerV3 or stats.SamplerDefault, the only stream
// contract left.
func AnalogMLPAccuracy(ctx context.Context, seed uint64, trials int, epsPS float64, sampler stats.SamplerVersion) (*AccuracyResult, error) {
	if sampler.Resolve() != stats.SamplerV3 {
		return nil, fmt.Errorf("experiments: unsupported sampler %v (want v3)", sampler)
	}
	// A one-member batch: the fused executor (batch.go) IS the single path,
	// so service-batched and standalone evaluations share every code path.
	rs, err := AnalogMLPAccuracyBatch(ctx, []uint64{seed}, trials, epsPS)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// studyOptions are the mapping options of one §VI-B Monte-Carlo trial:
// the design-point noise with X-subBuf error epsPS (ps), drawn from rng,
// the 24-bit interface and the worst-case 12-hop input cascade (§V), as
// noiseTrial maps them.
func studyOptions(rng *stats.RNG, epsPS float64) core.Options {
	noise := analog.DefaultNoiseRNG(rng)
	noise.XSubBufSigma = epsPS
	return core.Options{
		Noise:         noise,
		InterfaceBits: 24,
		InputHops:     params.MaxCascadedXSubBufs,
	}
}

// RunNoiseSweep sweeps the X-subBuf error ε and reports analog accuracy —
// the ablation behind the paper's choice of ε, cascade limit and margin.
// The classifier is memoized per seed, shared with RunAccuracy.
func RunNoiseSweep(ctx context.Context, seed uint64, epsilons []float64) ([]NoiseSweepPoint, error) {
	tm, err := accuracyMLP(seed)
	if err != nil {
		return nil, err
	}
	// Each ε point is one trial; every point draws the same noise stream.
	sums, err := runGrid(ctx, len(epsilons), 1, func(i, _ int) (draw, error) {
		acc, err := noiseTrial(tm, stats.NewTrialRNG(seed+1, 0), epsilons[i])
		return draw{acc: acc}, err
	})
	if err != nil {
		return nil, err
	}
	pts := make([]NoiseSweepPoint, len(epsilons))
	for i, eps := range epsilons {
		pts[i] = NoiseSweepPoint{
			EpsilonPS:    eps,
			AnalogAcc:    sums[i].mean,
			WithinMargin: analog.CascadeErrorBound(params.MaxCascadedXSubBufs, eps) <= params.TDelMargin,
		}
	}
	return pts, nil
}

func runAccuracy(ctx context.Context) ([]*report.Table, error) {
	res, err := RunAccuracy(ctx, 2020, 5)
	if err != nil {
		return nil, err
	}
	t := report.New("Accuracy under circuit noise (synthetic workload, §VI-B methodology)",
		"metric", "value")
	t.Add("float32 test accuracy", report.Pct(res.FloatAcc))
	t.Add("8-bit integer accuracy", report.Pct(res.IntAcc))
	t.Add(fmt.Sprintf("analog accuracy (design point, %d trials)", res.Trials), report.Pct(res.AnalogAcc))
	t.Add("accuracy loss", fmt.Sprintf("%.2f pp (paper: <=0.1%% on CNNs)", res.Loss*100))
	t.Add("cascade error sqrt(12)*eps", fmt.Sprintf("%.1f ps (margin %.0f ps)", res.CascadeErrorPS, res.MarginPS))
	pts, err := RunNoiseSweep(ctx, 2020, []float64{0, 5, 10, 20, 50, 100, 200, 400, 800})
	if err != nil {
		return nil, err
	}
	s := report.New("Noise ablation: X-subBuf error vs analog accuracy",
		"epsilon (ps)", "accuracy", "within margin")
	for _, p := range pts {
		in := "no"
		if p.WithinMargin {
			in = "yes"
		}
		s.AddF(p.EpsilonPS, report.Pct(p.AnalogAcc), in)
	}
	return []*report.Table{t, s}, nil
}

func init() {
	register(Experiment{
		ID:          "accuracy",
		Paper:       "§VI-B Accuracy",
		Description: "inference accuracy under injected circuit noise",
		Run:         runAccuracy,
	})
}
