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
// noiseGroup maps them.
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
//
// Each ε point is one trial on the noise stream
// stats.NewTrialRNG(seed+1, 0), the same stream for every point. A wave's
// deviate count depends only on which sigmas are non-zero and on the
// layer's shape, so every ε≠0 point draws exactly the deviates of every
// other, and so does every ε=0 point. The points are grouped by that draw
// signature, and each group is split into as many chunks as the worker
// pool has slots (at most one per point). A chunk is one unit of the
// worker budget: a noiseGroup on its own fresh stream, which maps its
// points on that one stream and scores them in lockstep, drawing each wave
// once for the whole chunk. Every point's accuracy is still that of its
// one-point trial on its own fresh stream, at any worker count.
func RunNoiseSweep(ctx context.Context, seed uint64, epsilons []float64) ([]NoiseSweepPoint, error) {
	tm, err := accuracyMLP(seed)
	if err != nil {
		return nil, err
	}
	// The indices of the ε=0 points, then of the ε≠0 points.
	var groups [2][]int
	for i, eps := range epsilons {
		g := 0
		if eps != 0 {
			g = 1
		}
		groups[g] = append(groups[g], i)
	}
	var chunks [][]int
	slots := innerPool.Load().size
	for _, g := range groups {
		n := min(slots, len(g))
		for c := 0; c < n; c++ {
			chunks = append(chunks, g[c*len(g)/n:(c+1)*len(g)/n])
		}
	}
	accs := make([]float64, len(epsilons))
	if err := parallelEach(ctx, len(chunks), func(c int) error {
		eps := make([]float64, len(chunks[c]))
		for k, i := range chunks[c] {
			eps[k] = epsilons[i]
		}
		got, err := noiseGroup(tm, stats.NewTrialRNG(seed+1, 0), eps)
		if err != nil {
			return err
		}
		for k, i := range chunks[c] {
			accs[i] = got[k]
		}
		return nil
	}); err != nil {
		return nil, err
	}
	pts := make([]NoiseSweepPoint, len(epsilons))
	for i, eps := range epsilons {
		pts[i] = NoiseSweepPoint{
			EpsilonPS:    eps,
			AnalogAcc:    accs[i],
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
