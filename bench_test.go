package repro

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§VI), regenerating the corresponding rows/series each
// iteration, plus micro-benchmarks of the simulator hot paths and the
// serial-vs-parallel RunAll comparison. Key reproduced quantities are
// attached as custom benchmark metrics so the bench output doubles as a
// results summary. Per-artifact benchmarks share the experiments package's
// memoized inputs across iterations; the RunAll benchmarks reset those
// caches each iteration to time cold, end-to-end executions.

import (
	"context"
	"io"
	"runtime"
	"testing"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/tensor"
)

func renderNull(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Render(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1c regenerates the peak efficiency/density landscape.
func BenchmarkFig1c(b *testing.B) { renderNull(b, "fig1c") }

// BenchmarkFig4 regenerates the access counts and baseline breakdowns.
func BenchmarkFig4(b *testing.B) { renderNull(b, "fig4") }

// BenchmarkFig5 regenerates the per-datum energy comparison.
func BenchmarkFig5(b *testing.B) { renderNull(b, "fig5") }

// BenchmarkTable4 regenerates the peak performance comparison.
func BenchmarkTable4(b *testing.B) { renderNull(b, "table4") }

// BenchmarkFig8a regenerates the 15-benchmark energy-efficiency comparison
// and reports the two geometric means as metrics (paper: 10.0 and 14.8).
func BenchmarkFig8a(b *testing.B) {
	var geo experiments.Fig8aRow
	for i := 0; i < b.N; i++ {
		var err error
		_, geo, err = experiments.Fig8a(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(geo.OverPrime, "x_over_PRIME")
	b.ReportMetric(geo.OverIsaac, "x_over_ISAAC")
}

// BenchmarkFig8b regenerates the throughput comparison across 8 CNNs and
// three chip configurations, reporting the VGG-D 16-chip ratios.
func BenchmarkFig8b(b *testing.B) {
	var rows []experiments.Fig8bRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig8b(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Network == "VGG-D" && r.Chips == 16 {
			b.ReportMetric(r.OverPrime, "x_over_PRIME_vggd16")
			b.ReportMetric(r.OverIsaac, "x_over_ISAAC_vggd16")
		}
	}
}

// BenchmarkFig9 regenerates the innovation-effectiveness analysis and
// reports the ALB+O2IR share of savings (paper: 99 %).
func BenchmarkFig9(b *testing.B) {
	var f *experiments.Fig9
	for i := 0; i < b.N; i++ {
		var err error
		f, err = experiments.RunFig9(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*f.SavingALBO2IR, "pct_saving_ALB_O2IR")
	b.ReportMetric(100*(1-f.TimelyInterfaceFJ/f.PrimeInterfaceFJ), "pct_interface_reduction")
}

// BenchmarkTable5 regenerates the O2IR input-read comparison.
func BenchmarkTable5(b *testing.B) { renderNull(b, "table5") }

// BenchmarkFig10 regenerates the area breakdowns.
func BenchmarkFig10(b *testing.B) { renderNull(b, "fig10") }

// BenchmarkFig11 regenerates the PRIME retrofit experiment and reports the
// intra-bank reduction (paper: 68 %).
func BenchmarkFig11(b *testing.B) {
	var r experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.RunFig11(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*r.Reduction, "pct_intrabank_reduction")
}

// BenchmarkAccuracy runs the §VI-B noise study (training included) and
// reports the design-point accuracy loss in percentage points.
func BenchmarkAccuracy(b *testing.B) {
	var res *experiments.AccuracyResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunAccuracy(context.Background(), 2020, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Loss, "pp_accuracy_loss")
}

// BenchmarkAblation runs the §V design-choice ablations (γ sweep, defect
// sweep with CNN training, signed-scheme table).
func BenchmarkAblation(b *testing.B) { renderNull(b, "ablation") }

// --- whole-suite runner benchmarks ---

// benchRunAll times one cold execution of the full registry per iteration
// at the given worker count (caches reset so nothing is amortised away).
func benchRunAll(b *testing.B, par int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		experiments.ResetCaches()
		for _, r := range experiments.Run(context.Background(), experiments.All(), experiments.Options{Par: par}) {
			if r.Err != nil {
				b.Fatalf("%s: %v", r.Experiment.ID, r.Err)
			}
		}
	}
}

// BenchmarkRunAllSerial times the full artifact suite on one worker.
func BenchmarkRunAllSerial(b *testing.B) { benchRunAll(b, 1) }

// BenchmarkRunAllParallel times the full artifact suite on GOMAXPROCS
// workers; compare against BenchmarkRunAllSerial for the speedup.
func BenchmarkRunAllParallel(b *testing.B) { benchRunAll(b, runtime.GOMAXPROCS(0)) }

// --- simulator micro-benchmarks ---

// BenchmarkFunctionalConv measures the functional analog pipeline on a
// small convolution (the verification workhorse).
func BenchmarkFunctionalConv(b *testing.B) {
	rng := stats.NewRNG(1)
	in := tensor.NewInt(3, 8, 8)
	for i := range in.Data {
		in.Data[i] = int32(rng.Intn(256))
	}
	f := tensor.NewFilter(8, 3, 3, 3)
	for i := range f.Data {
		f.Data[i] = int32(rng.Intn(255)) - 127
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunConv(core.IdealOptions(nil), in, f, 1, 1, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyticVGGD measures one analytic TIMELY evaluation of VGG-D.
func BenchmarkAnalyticVGGD(b *testing.B) {
	vgg := model.VGG("D")
	t8 := accel.NewTimely(8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t8.Evaluate(vgg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyticSuite measures a full 15-network, 4-model sweep.
func BenchmarkAnalyticSuite(b *testing.B) {
	nets := model.Benchmarks()
	for i := 0; i < b.N; i++ {
		for _, n := range nets {
			if _, err := accel.NewTimely(8, 1).Evaluate(n); err != nil {
				b.Fatal(err)
			}
			if _, err := accel.NewPrime(1).Evaluate(n); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkReferenceConv measures the integer reference convolution.
func BenchmarkReferenceConv(b *testing.B) {
	rng := stats.NewRNG(1)
	in := tensor.NewInt(64, 28, 28)
	for i := range in.Data {
		in.Data[i] = int32(rng.Intn(256))
	}
	f := tensor.NewFilter(64, 64, 3, 3)
	for i := range f.Data {
		f.Data[i] = int32(rng.Intn(255)) - 127
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2D(in, f, nil, 1, 1)
	}
}
