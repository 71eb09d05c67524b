package experiments

import (
	"context"
	"fmt"

	"repro/internal/analog"
	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The Monte-Carlo studies, one unit each. A §VI-B noise group
// (noiseGroup: one trial, or noise-sweep points scored in lockstep) and a
// §V defect draw (defectDraw) are the only places a study maps a model
// and evaluates it; the seed-batched entry points and the defect sweep
// run theirs over a grid of members × trials through one parallelEach
// (runGrid), so a batch occupies the worker budget as one wave instead
// of queueing member by member. Every unit's RNG stream is keyed by its
// (seed, trial) coordinates alone (stats.NewTrialRNG), so neither the
// grid's shape nor the worker count can change a draw: each member's
// result is byte-identical to running it alone. A single seed is a
// one-member batch.

// AnalogMLPAccuracyBatch runs the §VI-B accuracy study for every seed in
// one fused grid at shared (trials, epsPS). Results are returned in seed
// order, each byte-identical to AnalogMLPAccuracy at that seed.
func AnalogMLPAccuracyBatch(ctx context.Context, seeds []uint64, trials int, epsPS float64) ([]*AccuracyResult, error) {
	tms, err := trainEach(ctx, seeds, trials, accuracyMLP)
	if err != nil {
		return nil, err
	}
	sums, err := runGrid(ctx, len(seeds), trials, func(m, trial int) (draw, error) {
		accs, err := noiseGroup(tms[m], stats.NewTrialRNG(seeds[m], uint32(trial)), []float64{epsPS})
		if err != nil {
			return draw{}, err
		}
		return draw{acc: accs[0]}, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]*AccuracyResult, len(seeds))
	for m, s := range sums {
		tm := tms[m]
		res := &AccuracyResult{
			FloatAcc:       tm.m.Accuracy(tm.test),
			IntAcc:         tm.q.AccuracyInt(tm.test),
			AnalogAcc:      s.mean,
			CascadeErrorPS: analog.CascadeErrorBound(params.MaxCascadedXSubBufs, epsPS),
			MarginPS:       params.TDelMargin,
			AccP10:         s.p10,
			AccP50:         s.p50,
			AccP90:         s.p90,
			Trials:         trials,
		}
		res.Loss = res.IntAcc - res.AnalogAcc
		out[m] = res
	}
	return out, nil
}

// AnalogCNNAccuracyBatch maps each seed's synthetic-image CNN (memoized
// per seed, shared with DefectSweep) onto faulty crossbars at one stuck-at
// rate and measures the analog accuracy over trials independent fault-map
// draws, all seeds in one fused grid. Results are returned in seed order,
// each byte-identical to a one-seed call. Draw d is defectDraw's d-th draw,
// as in DefectSweep, so the facade and the ablation experiment agree
// exactly at equal (seed, rate, draws).
func AnalogCNNAccuracyBatch(ctx context.Context, seeds []uint64, trials int, faultRate float64) ([]*DefectResult, error) {
	tcs, err := trainEach(ctx, seeds, trials, defectCNN)
	if err != nil {
		return nil, err
	}
	// One draw per seed can never repeat, so a single-trial call skips the
	// memo and its per-draw Programmed key, and the patch codes, which its
	// one draw would read only once.
	accs := make([]memo[float64], len(seeds))
	patches := make([][][]uint8, len(seeds))
	if trials > 1 {
		for m, tc := range tcs {
			accs[m] = newMemo[float64](trials)
			patches[m] = tc.cnn.PatchCodes(tc.test)
		}
	}
	sums, err := runGrid(ctx, len(seeds), trials, func(m, d int) (draw, error) {
		return defectDraw(tcs[m], patches[m], seeds[m], d, faultRate, accs[m])
	})
	if err != nil {
		return nil, err
	}
	out := make([]*DefectResult, len(seeds))
	for m, s := range sums {
		tc := tcs[m]
		out[m] = &DefectResult{
			IntAcc:    tc.cnn.AccuracyInt(tc.test),
			AnalogAcc: s.mean,
			AccP10:    s.p10,
			AccP50:    s.p50,
			AccP90:    s.p90,
			Faults:    s.faults,
			Trials:    trials,
		}
	}
	return out, nil
}

// trainEach checks the shape of a seed batch and fetches each seed's
// trained model through train (memoized per seed, so members and the
// sweep experiments share it), training on the worker budget.
func trainEach[T any](ctx context.Context, seeds []uint64, trials int, train func(uint64) (T, error)) ([]T, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: empty seed batch")
	}
	if trials < 1 {
		return nil, fmt.Errorf("experiments: trials must be >= 1, got %d", trials)
	}
	out := make([]T, len(seeds))
	if err := parallelEach(ctx, len(seeds), func(m int) error {
		v, err := train(seeds[m])
		out[m] = v
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// draw is one Monte-Carlo unit's outcome: its test accuracy and, for a
// defect draw, the stuck cells its fault map realised.
type draw struct {
	acc    float64
	faults int
}

// summary reduces one member's draws: the mean accuracy, its P10/P50/P90
// (linear-interpolated, one sort via stats.PercentilesInto) and the mean
// fault count, truncated.
type summary struct {
	mean, p10, p50, p90 float64
	faults              int
}

// runGrid runs unit(m, t) for every member m < members and trial
// t < trials as one wave on the worker budget, and summarises each
// member's trials in trial order, so the result is the same at any worker
// count.
func runGrid(ctx context.Context, members, trials int, unit func(m, t int) (draw, error)) ([]summary, error) {
	draws := make([]draw, members*trials)
	if err := parallelEach(ctx, len(draws), func(i int) error {
		d, err := unit(i/trials, i%trials)
		draws[i] = d
		return err
	}); err != nil {
		return nil, err
	}
	out := make([]summary, members)
	accs := make([]float64, trials)
	for m := range out {
		sum, faults := 0.0, 0
		for t, d := range draws[m*trials : (m+1)*trials] {
			sum += d.acc
			faults += d.faults
			accs[t] = d.acc
		}
		var pcts [3]float64
		stats.PercentilesInto(accs, []float64{10, 50, 90}, pcts[:])
		out[m] = summary{mean: sum / float64(trials), p10: pcts[0], p50: pcts[1], p90: pcts[2], faults: faults / trials}
	}
	return out, nil
}

// noiseGroup maps tm's quantised classifier under studyOptions at each
// X-subBuf error of epsPS, all with noise drawn from rng, and returns their
// test accuracies, scored in lockstep (workload.LockstepAccuracy). The
// ε values must share one draw signature (all zero or all non-zero); then
// each accuracy is that of the point mapped and scored alone on its own
// fresh copy of rng. One §VI-B Monte-Carlo trial is a one-point group: the
// accuracy study, the noise sweep and BenchmarkAccuracyTrial all run it.
func noiseGroup(tm *trainedMLP, rng *stats.RNG, epsPS []float64) ([]float64, error) {
	as := make([]*workload.AnalogMLP, len(epsPS))
	for k, eps := range epsPS {
		a, err := tm.q.MapAnalog(studyOptions(rng, eps))
		if err != nil {
			return nil, err
		}
		as[k] = a
	}
	return workload.LockstepAccuracy(as, tm.test)
}

// defectDraw is draw d of the §V defect study at one stuck-at rate: tc's
// CNN mapped at the 24-bit interface onto a sub-chip whose faults come
// from the trial stream stats.NewTrialRNG(seed, d), evaluated through
// defectAccuracy's memo accs on tc's test split, whose patch codes
// (CNN.PatchCodes) are patches, or nil to im2col each image as it is
// read. DefectSweep, AnalogCNNAccuracyBatch and BenchmarkDefectTrial all
// run it; each computes the patch codes once per call when several draws
// read them, and drops them after, so the memoized model does not hold
// them.
func defectDraw(tc *trainedCNN, patches [][]uint8, seed uint64, d int, rate float64, accs memo[float64]) (draw, error) {
	a, err := tc.cnn.MapAnalog(core.Options{
		Noise:         &analog.Noise{RNG: stats.NewTrialRNG(seed, uint32(d))},
		InterfaceBits: 24,
	}, rate)
	if err != nil {
		return draw{}, err
	}
	defer a.Release()
	acc, err := defectAccuracy(accs, a, tc.test, patches)
	return draw{acc: acc, faults: a.Faults()}, err
}

// defectAccuracy is the accuracy of one fault-map draw of a defect study,
// evaluated once per distinct programmed CNN. accs must be private to one
// call and one trained model, or the zero memo, which evaluates every
// draw. Within one call mapping options are fixed, so a BatchSafe mapped
// CNN's accuracy is a function of AnalogCNN.Programmed alone, and draws
// whose faults leave the read cells identical share the first such draw's
// evaluation. accs is capped at the call's draw count, so it never
// evicts. Fault injection and every RNG stream are untouched — the memo
// only skips repeated test-set passes. Every pass reads test's patch
// codes patches instead of redoing the im2col.
func defectAccuracy(accs memo[float64], a *workload.AnalogCNN, test *workload.ImageDataset, patches [][]uint8) (float64, error) {
	if accs.lru == nil || !a.BatchSafe() {
		return a.Accuracy(test, patches)
	}
	return accs.Do(a.Programmed(), func() (float64, error) { return a.Accuracy(test, patches) })
}
