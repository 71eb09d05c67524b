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

// Batched experiment executors: several requests that differ ONLY in their
// Monte-Carlo seed run as one fused trial grid — members × trials units
// through a single parallelEach — so a batch occupies the worker budget as
// one wave instead of queueing member-by-member, and each mapped model
// evaluates its test set through the image-batched matrix–matrix path
// (workload.AccuracyBatch). Per-trial RNG streams are keyed by (seed,
// trial) alone (stats.NewTrialRNG), so the fusion cannot change any draw:
// each member's result is byte-identical to running it alone. A single
// seed is a one-member batch.

// AnalogMLPAccuracyBatch runs the §VI-B accuracy study for every seed in
// one fused grid at shared (trials, epsPS). Results are returned in seed
// order, each byte-identical to AnalogMLPAccuracy at that seed.
func AnalogMLPAccuracyBatch(ctx context.Context, seeds []uint64, trials int, epsPS float64) ([]*AccuracyResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: empty seed batch")
	}
	if trials < 1 {
		return nil, fmt.Errorf("experiments: trials must be >= 1, got %d", trials)
	}
	// Train (or fetch) each member's classifier first — memoized per seed,
	// shared across members and with the sweep experiments.
	tms := make([]*trainedMLP, len(seeds))
	err := parallelEach(ctx, len(seeds), func(m int) error {
		tm, err := accuracyMLP(seeds[m])
		if err != nil {
			return err
		}
		tms[m] = tm
		return nil
	})
	if err != nil {
		return nil, err
	}
	// One wave over the full members × trials grid. Unit (m, t) is exactly
	// the unit AnalogMLPAccuracy(seeds[m], ...) runs for trial t: the same
	// trial-keyed RNG, the same mapping options, the same test set.
	accs := make([]float64, len(seeds)*trials)
	err = parallelEach(ctx, len(accs), func(i int) error {
		m, trial := i/trials, i%trials
		a, err := tms[m].q.MapAnalog(studyOptions(stats.NewTrialRNG(seeds[m], uint32(trial)), epsPS))
		if err != nil {
			return err
		}
		acc, err := a.AccuracyBatch(tms[m].test)
		if err != nil {
			return err
		}
		accs[i] = acc
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]*AccuracyResult, len(seeds))
	for m := range seeds {
		tm := tms[m]
		res := &AccuracyResult{
			FloatAcc:       tm.m.Accuracy(tm.test),
			IntAcc:         tm.q.AccuracyInt(tm.test),
			CascadeErrorPS: analog.CascadeErrorBound(params.MaxCascadedXSubBufs, epsPS),
			MarginPS:       params.TDelMargin,
			Trials:         trials,
		}
		member := accs[m*trials : (m+1)*trials]
		sum := 0.0
		for _, acc := range member {
			sum += acc
		}
		res.AnalogAcc = sum / float64(trials)
		res.Loss = res.IntAcc - res.AnalogAcc
		var pcts [3]float64
		stats.PercentilesInto(member, []float64{10, 50, 90}, pcts[:])
		res.AccP10, res.AccP50, res.AccP90 = pcts[0], pcts[1], pcts[2]
		out[m] = res
	}
	return out, nil
}

// AnalogCNNAccuracyBatch maps each seed's synthetic-image CNN (memoized
// per seed, shared with DefectSweep) onto faulty crossbars at one stuck-at
// rate and measures the analog accuracy over trials independent fault-map
// draws, all seeds in one fused grid. Results are returned in seed order,
// each byte-identical to a one-seed call. Draw d uses the same RNG stream
// DefectSweep gives its d-th draw, so the facade and the ablation
// experiment agree exactly at equal (seed, rate, draws).
func AnalogCNNAccuracyBatch(ctx context.Context, seeds []uint64, trials int, faultRate float64) ([]*DefectResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: empty seed batch")
	}
	if trials < 1 {
		return nil, fmt.Errorf("experiments: trials must be >= 1, got %d", trials)
	}
	tcs := make([]*trainedCNN, len(seeds))
	err := parallelEach(ctx, len(seeds), func(m int) error {
		tc, err := defectCNN(seeds[m])
		if err != nil {
			return err
		}
		tcs[m] = tc
		return nil
	})
	if err != nil {
		return nil, err
	}
	type unit struct {
		acc    float64
		faults int
	}
	units := make([]unit, len(seeds)*trials)
	// One draw per seed can never repeat, so a single-trial call skips the
	// memo and its per-draw Programmed key.
	var accs []memo[float64]
	if trials > 1 {
		accs = make([]memo[float64], len(seeds))
		for m := range accs {
			accs[m] = newMemo[float64](trials)
		}
	}
	err = parallelEach(ctx, len(units), func(i int) error {
		m, d := i/trials, i%trials
		a, err := tcs[m].cnn.MapAnalog(core.Options{
			Noise:         &analog.Noise{RNG: stats.NewTrialRNG(seeds[m], uint32(d))},
			InterfaceBits: 24,
		}, faultRate)
		if err != nil {
			return err
		}
		defer a.Release()
		var acc float64
		if accs == nil {
			acc, err = a.AccuracyBatch(tcs[m].test)
		} else {
			acc, err = defectAccuracy(accs[m], a, tcs[m].test)
		}
		if err != nil {
			return err
		}
		units[i] = unit{acc: acc, faults: a.Faults()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]*DefectResult, len(seeds))
	for m := range seeds {
		tc := tcs[m]
		res := &DefectResult{IntAcc: tc.cnn.AccuracyInt(tc.test), Trials: trials}
		sum, faults := 0.0, 0
		member := make([]float64, trials)
		for d := 0; d < trials; d++ {
			u := units[m*trials+d]
			sum += u.acc
			faults += u.faults
			member[d] = u.acc
		}
		res.AnalogAcc = sum / float64(trials)
		res.Faults = faults / trials
		var pcts [3]float64
		stats.PercentilesInto(member, []float64{10, 50, 90}, pcts[:])
		res.AccP10, res.AccP50, res.AccP90 = pcts[0], pcts[1], pcts[2]
		out[m] = res
	}
	return out, nil
}

// defectAccuracy is the accuracy of one fault-map draw of a defect study,
// evaluated once per distinct programmed CNN. accs must be private to one
// call and one trained model: within it, mapping options are fixed, so a
// BatchSafe mapped CNN's accuracy is a function of AnalogCNN.Programmed
// alone, and draws whose faults leave the read cells identical share the
// first such draw's evaluation. accs is capped at the call's draw count,
// so it never evicts. Fault injection and every RNG stream are untouched —
// the memo only skips repeated test-set passes.
func defectAccuracy(accs memo[float64], a *workload.AnalogCNN, test *workload.ImageDataset) (float64, error) {
	if !a.BatchSafe() {
		return a.AccuracyBatch(test)
	}
	return accs.Do(a.Programmed(), func() (float64, error) { return a.AccuracyBatch(test) })
}
