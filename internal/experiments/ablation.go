package experiments

import (
	"context"
	"fmt"

	"repro/internal/analog"
	"repro/internal/area"
	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/report"
	"repro/internal/stats"
)

// Ablation studies beyond the paper's figures, covering the design choices
// §V discusses qualitatively: the DTC/TDC sharing factor γ (throughput vs
// computational density), stuck-at-fault resilience of the analog datapath
// (the defect-rescue literature the paper leans on), and the cost of the
// two signed-weight encodings the crossbars support.

// GammaPoint is one γ design point.
type GammaPoint struct {
	Gamma int
	// CycleNS is the pipeline cycle in ns (γ × 25 ns).
	CycleNS float64
	// SubChipMM2 is the sub-chip area with the resized interface banks.
	SubChipMM2 float64
	// PeakTOPS is per-sub-chip peak (8-bit MACs/s, 1 op = 1 MAC).
	PeakTOPS float64
	// DensityTOPsMM2 is the resulting computational density.
	DensityTOPsMM2 float64
}

// GammaSweep evaluates the §V trade-off: fewer conversions per DTC/TDC
// (small γ) shortens the cycle but pays interface area; the Table II design
// point is γ=8.
func GammaSweep(gammas []int) []GammaPoint {
	var pts []GammaPoint
	for _, g := range gammas {
		cfg := params.DefaultTimely(8)
		cfg.Gamma = g
		d := area.TimelyDesignPoint(cfg)
		pts = append(pts, GammaPoint{
			Gamma:          g,
			CycleNS:        d.CycleNS,
			SubChipMM2:     d.SubChipUM2 / 1e6,
			PeakTOPS:       d.PeakTOPS,
			DensityTOPsMM2: d.DensityTOPsMM2,
		})
	}
	return pts
}

// DefectPoint is one stuck-at-fault rate of the defect ablation.
type DefectPoint struct {
	// Rate is the stuck-cell fraction; Faults the realised count.
	Rate   float64
	Faults int
	// Accuracy is the analog CNN accuracy at that defect level.
	Accuracy float64
}

// DefectSweep maps the synthetic CNN (memoized per seed) onto faulty
// crossbars at increasing stuck-at rates and measures the accuracy averaged
// over several fault-map draws (§V: "TIMELY ... leverages algorithm
// resilience of CNNs/DNNs to counter hardware vulnerability"; no
// defect-aware retraining or remapping is applied, so this is the
// unprotected floor the rescue literature improves on). Each draw's
// generator is keyed by its (seed, draw) coordinates and each crossbar by
// its grid slot, so the sweep is byte-stable at any worker count by
// construction rather than by careful stream ordering; and because no
// slot's draws feed another's, the crossbars the CNN never touches draw
// only their binomial count, leaving O(faults) work on the few mapped
// slots alone. Draws that program identical cells (every rate-0 draw, and
// most low-rate draws, whose faults miss the cells the CNN reads) share one
// accuracy evaluation; their fault maps are still drawn one by one.
func DefectSweep(ctx context.Context, seed uint64, rates []float64) ([]DefectPoint, error) {
	tc, err := defectCNN(seed)
	if err != nil {
		return nil, err
	}
	cnn, test := tc.cnn, tc.test
	const draws = 5
	// Every (rate, draw) evaluation is independent — own fault map, own
	// noise RNG derived from the draw index — so the grid runs on the
	// worker budget and reduces in index order for identical output.
	type unit struct {
		acc    float64
		faults int
	}
	units := make([]unit, len(rates)*draws)
	accs := newMemo[float64](max(len(units), 1)) // an empty sweep still needs a cap of 1
	err = parallelEach(ctx, len(units), func(i int) error {
		rate, d := rates[i/draws], i%draws
		a, err := cnn.MapAnalog(core.Options{
			Noise:         &analog.Noise{RNG: stats.NewTrialRNG(seed, uint32(d))},
			InterfaceBits: 24,
		}, rate)
		if err != nil {
			return err
		}
		defer a.Release()
		acc, err := defectAccuracy(accs, a, test)
		if err != nil {
			return err
		}
		units[i] = unit{acc: acc, faults: a.Faults()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pts []DefectPoint
	for ri, rate := range rates {
		sum, faults := 0.0, 0
		for d := 0; d < draws; d++ {
			u := units[ri*draws+d]
			sum += u.acc
			faults += u.faults
		}
		pts = append(pts, DefectPoint{Rate: rate, Faults: faults / draws, Accuracy: sum / draws})
	}
	return pts, nil
}

// DefectResult is one functional-CNN evaluation at a fixed stuck-at rate —
// the form the public sim facade serves.
type DefectResult struct {
	// IntAcc is the 8-bit integer reference accuracy of the trained CNN;
	// AnalogAcc the analog-datapath accuracy at the fault rate, averaged
	// over Trials fault-map draws.
	IntAcc, AnalogAcc float64
	// AccP10/AccP50/AccP90 summarise the per-draw accuracy spread
	// (percentiles over the Trials draws, one sort via
	// stats.PercentilesInto).
	AccP10, AccP50, AccP90 float64
	// Faults is the mean realised stuck-cell count per draw.
	Faults int
	// Trials is the fault-map draw count.
	Trials int
}

// SchemePoint compares the signed-weight encodings.
type SchemePoint struct {
	Scheme string
	// ColumnsPer8bWeight is the physical bit-cell columns per 8-bit weight.
	ColumnsPer8bWeight int
	// Conversions is the A/D conversions per weight per wave.
	Conversions int
	// Exact notes both schemes recover the signed dot exactly.
	Exact bool
}

// SchemeComparison tabulates the differential vs offset-binary signed
// encodings implemented by package reram (the paper's budget assumes the
// sub-ranged two-column layout; the functional simulator defaults to
// differential for exactness).
func SchemeComparison() []SchemePoint {
	cpw := params.DefaultTimely(8).ColumnsPerWeight()
	return []SchemePoint{
		{Scheme: "differential (pos/neg column pair)", ColumnsPer8bWeight: 2 * cpw, Conversions: 2 * cpw, Exact: true},
		{Scheme: "offset-binary + reference column", ColumnsPer8bWeight: cpw + 1, Conversions: cpw + 1, Exact: true},
		{Scheme: "paper accounting (unsigned sub-range)", ColumnsPer8bWeight: cpw, Conversions: cpw, Exact: false},
	}
}

func runAblation(ctx context.Context) ([]*report.Table, error) {
	g := report.New("Ablation: DTC/TDC sharing factor gamma (Table II point: 8)",
		"gamma", "cycle (ns)", "sub-chip mm^2", "peak TOPS/sub-chip", "TOPs/(s*mm^2)")
	for _, p := range GammaSweep([]int{1, 2, 4, 8, 16, 32}) {
		g.AddF(p.Gamma, p.CycleNS, fmt.Sprintf("%.2f", p.SubChipMM2),
			fmt.Sprintf("%.2f", p.PeakTOPS), fmt.Sprintf("%.2f", p.DensityTOPsMM2))
	}
	pts, err := DefectSweep(ctx, 5, []float64{0, 0.001, 0.01, 0.05, 0.15, 0.30})
	if err != nil {
		return nil, err
	}
	d := report.New("Ablation: stuck-at faults vs analog CNN accuracy",
		"fault rate", "stuck cells", "accuracy")
	for _, p := range pts {
		d.AddF(report.Pct(p.Rate), p.Faults, report.Pct(p.Accuracy))
	}
	s := report.New("Ablation: signed-weight encodings",
		"scheme", "cols / 8-bit weight", "conversions / wave", "exact signed dot")
	for _, p := range SchemeComparison() {
		ex := "yes"
		if !p.Exact {
			ex = "n/a (unsigned)"
		}
		s.AddF(p.Scheme, p.ColumnsPer8bWeight, p.Conversions, ex)
	}
	return []*report.Table{g, d, s}, nil
}

func init() {
	register(Experiment{
		ID:          "ablation",
		Paper:       "§V design choices",
		Description: "gamma sharing, defect resilience and signed-scheme ablations",
		Run:         runAblation,
	})
}
