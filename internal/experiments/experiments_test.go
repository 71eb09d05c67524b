package experiments

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/report"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablation", "accuracy", "fig10", "fig11", "fig1c", "fig4",
		"fig5", "fig8a", "fig8b", "fig9", "layers", "table4", "table5"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, got[i].ID, id)
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("fig99"); err == nil {
		t.Errorf("unknown experiment accepted")
	}
}

func TestAllExperimentsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("full render is slow")
	}
	for _, e := range All() {
		var buf bytes.Buffer
		if err := e.Render(context.Background(), &buf); err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", e.ID)
		}
	}
}

func TestFig1cTimelyDominatesPIMs(t *testing.T) {
	pts := Fig1c()
	var timely8 Fig1cPoint
	for _, p := range pts {
		if p.Name == "TIMELY" && p.OpBits == 8 {
			timely8 = p
		}
	}
	for _, p := range pts {
		if p.Name == "TIMELY" || p.OpBits != 8 {
			continue
		}
		if timely8.EfficiencyTOPsW <= p.EfficiencyTOPsW {
			t.Errorf("TIMELY-8 efficiency does not dominate %s", p.Name)
		}
	}
}

func TestFig4aCounts(t *testing.T) {
	rows := Fig4a()
	if len(rows) != 2 {
		t.Fatalf("Fig4a rows = %d, want 2", len(rows))
	}
	// §III-A: "more than 55 million inputs and 15 million Psums" during
	// VGG-D and ResNet-50 inference. Our CONV-layer counting model gives
	// 81.7M/108M for VGG-D (the psum figure counts write+read accesses).
	vgg := rows[0]
	if vgg.Network != "VGG-D" {
		t.Fatalf("first row = %s", vgg.Network)
	}
	if vgg.Inputs < 55e6 {
		t.Errorf("VGG-D inputs = %.3g, want >55M (§III-A)", vgg.Inputs)
	}
	if vgg.Psums < 15e6 {
		t.Errorf("VGG-D psums = %.3g, want >15M (§III-A)", vgg.Psums)
	}
	res := rows[1]
	if res.Inputs < 15e6 {
		t.Errorf("ResNet-50 inputs = %.3g, implausibly low", res.Inputs)
	}
}

func TestFig4bSharesSumBelowOne(t *testing.T) {
	b, err := Fig4b()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range b.Shares {
		if s.Fraction < 0 || s.Fraction > 1 {
			t.Errorf("share %s = %v out of [0,1]", s.Name, s.Fraction)
		}
		sum += s.Fraction
	}
	if sum > 1.001 || sum < 0.9 {
		t.Errorf("PRIME shares sum to %.3f, want ≈1 (movement+interfaces dominate)", sum)
	}
}

func TestFig5Reductions(t *testing.T) {
	rows := Fig5c()
	if len(rows) != 4 {
		t.Fatalf("Fig5c rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Reduction <= 1 {
			t.Errorf("%s: reduction %.2f must exceed 1", r.Quantity, r.Reduction)
		}
	}
	// Innovation #2: interface reductions are q1·NCB and q2·NCB.
	if math.Abs(rows[2].Reduction-600) > 1 {
		t.Errorf("interfacing/input reduction = %.1f, want 600 (q1 x NCBcols)", rows[2].Reduction)
	}
	if math.Abs(rows[3].Reduction-320) > 1 {
		t.Errorf("interfacing/psum reduction = %.1f, want 320 (q2 x NCBrows)", rows[3].Reduction)
	}
	// Innovation #1: data-access reductions are ≈NCB (i.e. ≈10x).
	if rows[0].Reduction < 5 || rows[0].Reduction > 15 {
		t.Errorf("data/input reduction = %.1f, want ≈NCB", rows[0].Reduction)
	}
}

func TestTable4Structure(t *testing.T) {
	rows := Table4()
	if len(rows) != 6 {
		t.Fatalf("Table4 rows = %d, want 6", len(rows))
	}
	for _, r := range rows[:4] {
		if r.EffImprovement <= 1 || r.DenImprovement <= 1 {
			t.Errorf("%s: TIMELY improvements %.1f/%.1f must exceed 1",
				r.Name, r.EffImprovement, r.DenImprovement)
		}
	}
	// Density gains track the paper closely: 31.2x (PRIME), 20.0x (ISAAC),
	// 6.4x (PipeLayer), 20.0x (AtomLayer); allow 10% model slack.
	wantDen := map[string]float64{"PRIME": 31.2, "ISAAC": 20.0, "PipeLayer": 6.4, "AtomLayer": 20.0}
	for _, r := range rows[:4] {
		want := wantDen[r.Name]
		if math.Abs(r.DenImprovement-want)/want > 0.10 {
			t.Errorf("%s density gain = %.1f, want ≈%.1f (Table IV)", r.Name, r.DenImprovement, want)
		}
	}
}

func TestFig8aGeomeans(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates 15 networks x 4 accelerators")
	}
	rows, geo, err := Fig8a(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("Fig8a rows = %d, want 15", len(rows))
	}
	for _, r := range rows {
		if r.OverPrime <= 1 || r.OverIsaac <= 1 {
			t.Errorf("%s: TIMELY does not win (%.2f / %.2f)", r.Network, r.OverPrime, r.OverIsaac)
		}
	}
	// Paper: geomean 10.0x over PRIME and 14.8x over ISAAC — one order of
	// magnitude; the model lands within 2x of both (EXPERIMENTS.md).
	if geo.OverPrime < 8 || geo.OverPrime > 30 {
		t.Errorf("geomean over PRIME = %.1f, want order of magnitude (paper: 10.0)", geo.OverPrime)
	}
	if geo.OverIsaac < 8 || geo.OverIsaac > 30 {
		t.Errorf("geomean over ISAAC = %.1f, want order of magnitude (paper: 14.8)", geo.OverIsaac)
	}
}

func TestFig9Reductions(t *testing.T) {
	f, err := RunFig9(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 9(a): ALB+O2IR ≈99 %, TDI ≈1 %.
	if f.SavingALBO2IR < 0.95 || f.SavingALBO2IR > 1 {
		t.Errorf("ALB+O2IR saving share = %.3f, want ≈0.99", f.SavingALBO2IR)
	}
	if f.SavingTDI < 0 || f.SavingTDI > 0.05 {
		t.Errorf("TDI saving share = %.3f, want ≈0.01", f.SavingTDI)
	}
	// Fig. 9(b): ≥99 % interface reduction.
	if red := 1 - f.TimelyInterfaceFJ/f.PrimeInterfaceFJ; red < 0.99 {
		t.Errorf("interface reduction = %.4f", red)
	}
	// Fig. 9(d): output movement reduction ≈87.1 %.
	outRed := 1 - f.TimelyByClass[energy.ClassOutput]/f.PrimeByClass[energy.ClassOutput]
	if math.Abs(outRed-0.871) > 0.03 {
		t.Errorf("output reduction = %.3f, want ≈0.871", outRed)
	}
	// TIMELY has no L2 level.
	if f.TimelyByLevel[energy.LevelL2] != 0 {
		t.Errorf("TIMELY shows L2 energy")
	}
}

func TestTable5MatchesPaper(t *testing.T) {
	rows := Table5()
	wantPrime := []float64{1.35e6, 28.90e6, 7.23e6, 14.45e6, 3.61e6, 7.23e6}
	wantTimely := []float64{0.15e6, 3.21e6, 0.80e6, 1.61e6, 0.40e6, 0.80e6}
	for i, r := range rows {
		if math.Abs(r.Prime-wantPrime[i])/wantPrime[i] > 0.005 {
			t.Errorf("%s PRIME = %.3g, want %.3g", r.Layer, r.Prime, wantPrime[i])
		}
		if math.Abs(r.Timely-wantTimely[i])/wantTimely[i] > 0.01 {
			t.Errorf("%s TIMELY = %.3g, want %.3g", r.Layer, r.Timely, wantTimely[i])
		}
		if math.Abs(r.Saving-0.889) > 0.001 {
			t.Errorf("%s saving = %.4f, want 0.889", r.Layer, r.Saving)
		}
	}
}

func TestFig10Shares(t *testing.T) {
	shares := Fig10a()
	byName := map[string]float64{}
	for _, s := range shares {
		byName[s.Name] = s.Fraction
	}
	if math.Abs(byName["TIMELY"]-0.022) > 0.002 {
		t.Errorf("TIMELY ReRAM share = %.4f, want ≈0.022", byName["TIMELY"])
	}
	if byName["TIMELY"] < byName["ISAAC"] || byName["ISAAC"] < byName["PRIME"] {
		t.Errorf("Fig. 10(a) ordering broken: %v", byName)
	}
}

func TestFig11Reduction(t *testing.T) {
	r, err := RunFig11(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Reduction-0.68) > 0.07 {
		t.Errorf("intra-bank reduction = %.3f, want ≈0.68 (Fig. 11)", r.Reduction)
	}
}

func TestAccuracyDesignPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a classifier")
	}
	res, err := RunAccuracy(context.Background(), 2020, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.IntAcc < 0.9 {
		t.Fatalf("integer baseline accuracy %.3f too low to be meaningful", res.IntAcc)
	}
	if res.Loss > 0.005 {
		t.Errorf("design-point accuracy loss = %.4f, want ≤0.005 (paper: ≤0.001)", res.Loss)
	}
	if res.CascadeErrorPS > res.MarginPS {
		t.Errorf("cascade error %.1f ps exceeds margin %.1f ps", res.CascadeErrorPS, res.MarginPS)
	}
}

func TestNoiseSweepMonotoneTail(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a classifier")
	}
	pts, err := RunNoiseSweep(context.Background(), 2020, []float64{10, 800})
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].AnalogAcc >= pts[0].AnalogAcc {
		t.Errorf("800 ps accuracy (%.3f) not below 10 ps accuracy (%.3f)",
			pts[1].AnalogAcc, pts[0].AnalogAcc)
	}
	if pts[0].WithinMargin != true || pts[1].WithinMargin != false {
		t.Errorf("margin flags wrong: %v %v", pts[0].WithinMargin, pts[1].WithinMargin)
	}
}

func TestGammaSweepTradeoff(t *testing.T) {
	pts := GammaSweep([]int{1, 2, 4, 8, 16})
	for i := 1; i < len(pts); i++ {
		// More sharing: longer cycles, smaller area, lower peak.
		if pts[i].CycleNS <= pts[i-1].CycleNS {
			t.Errorf("cycle not increasing at gamma=%d", pts[i].Gamma)
		}
		if pts[i].SubChipMM2 >= pts[i-1].SubChipMM2 {
			t.Errorf("area not decreasing at gamma=%d", pts[i].Gamma)
		}
		if pts[i].PeakTOPS >= pts[i-1].PeakTOPS {
			t.Errorf("peak not decreasing at gamma=%d", pts[i].Gamma)
		}
	}
	// The Table II design point must reproduce the published density.
	for _, p := range pts {
		if p.Gamma == 8 {
			if math.Abs(p.DensityTOPsMM2-38.33)/38.33 > 0.1 {
				t.Errorf("gamma=8 density = %.2f, want ≈38.33 (Table IV)", p.DensityTOPsMM2)
			}
			if math.Abs(p.SubChipMM2-0.86) > 0.01 {
				t.Errorf("gamma=8 sub-chip area = %.3f, want 0.86 (Table II)", p.SubChipMM2)
			}
		}
	}
}

func TestDefectSweepDeclines(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a CNN")
	}
	pts, err := DefectSweep(context.Background(), 5, []float64{0, 0.30})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Accuracy < 0.9 {
		t.Fatalf("clean accuracy %.3f too low", pts[0].Accuracy)
	}
	if pts[1].Accuracy >= pts[0].Accuracy-0.2 {
		t.Errorf("30%% faults barely hurt: %.3f -> %.3f", pts[0].Accuracy, pts[1].Accuracy)
	}
	if pts[0].Faults != 0 || pts[1].Faults == 0 {
		t.Errorf("fault counts wrong: %d / %d", pts[0].Faults, pts[1].Faults)
	}
}

func TestSchemeComparison(t *testing.T) {
	pts := SchemeComparison()
	if len(pts) != 3 {
		t.Fatalf("schemes = %d", len(pts))
	}
	if pts[0].ColumnsPer8bWeight != 4 || pts[1].ColumnsPer8bWeight != 3 || pts[2].ColumnsPer8bWeight != 2 {
		t.Errorf("column budgets wrong: %+v", pts)
	}
}

func TestLayerProfile(t *testing.T) {
	rows, err := LayerProfile("VGG-D")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("VGG-D layer rows = %d, want 16", len(rows))
	}
	// conv1_2 carries the largest L1 input-read count (Table V's 3.21 M).
	for _, r := range rows {
		if r.Layer == "conv1_2" {
			if math.Abs(r.InputReads-3.21e6)/3.21e6 > 0.01 {
				t.Errorf("conv1_2 input reads = %.3g, want 3.21M", r.InputReads)
			}
			if r.Copies < 2 {
				t.Errorf("conv1_2 has no O2IR duplication")
			}
		}
		if r.Cycles <= 0 || r.SubChips <= 0 || r.EnergyFJ <= 0 {
			t.Errorf("%s has degenerate profile %+v", r.Layer, r)
		}
	}
	if _, err := LayerProfile("nonexistent"); err == nil {
		t.Errorf("unknown network accepted")
	}
}

func TestRunPreservesOrderAndCapturesErrors(t *testing.T) {
	boom := errors.New("boom")
	mk := func(id string, err error) Experiment {
		return Experiment{
			ID: id, Paper: id, Description: id,
			Run: func(context.Context) ([]*report.Table, error) {
				if err != nil {
					return nil, err
				}
				return []*report.Table{report.New(id, "h").Add("v")}, nil
			},
		}
	}
	exps := []Experiment{mk("a", nil), mk("b", boom), mk("c", nil)}
	results := Run(context.Background(), exps, Options{Par: 3})
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for i, want := range []string{"a", "b", "c"} {
		if results[i].Experiment.ID != want {
			t.Errorf("results[%d] = %s, want %s", i, results[i].Experiment.ID, want)
		}
	}
	if !errors.Is(results[1].Err, boom) {
		t.Errorf("error not captured: %v", results[1].Err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("failing experiment stopped its siblings")
	}
	if results[0].Tables == nil || results[2].Tables == nil {
		t.Errorf("successful results missing tables")
	}

	var buf bytes.Buffer
	err := WriteText(&buf, results)
	if err == nil || !strings.Contains(err.Error(), "b:") {
		t.Errorf("WriteText error = %v, want wrapped b failure", err)
	}
	if !strings.Contains(buf.String(), "=== a — a ===") {
		t.Errorf("sections before the failure were not written: %q", buf.String())
	}
}

func TestResultDocument(t *testing.T) {
	e, err := ByID("table5")
	if err != nil {
		t.Fatal(err)
	}
	results := Run(context.Background(), []Experiment{e}, Options{Par: 1})
	doc := results[0].Document()
	if doc.ID != "table5" || doc.Title != "Table V" || len(doc.Tables) != 1 {
		t.Errorf("document = %+v", doc)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"id\": \"table5\"") {
		t.Errorf("WriteJSON missing id: %q", buf.String())
	}
}

func TestRunAllProducesEverySection(t *testing.T) {
	if testing.Short() {
		t.Skip("full render is slow")
	}
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig. 4", "Fig. 5", "Fig. 8(a)", "Fig. 8(b)",
		"Fig. 9", "Fig. 10", "Fig. 11", "Table IV", "Table V", "Accuracy"} {
		if !strings.Contains(out, want) {
			t.Errorf("RunAll output missing %q", want)
		}
	}
}

func TestRunSkipsExperimentsAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	cancelling := Experiment{
		ID: "x", Paper: "x", Description: "cancels mid-run",
		Run: func(context.Context) ([]*report.Table, error) {
			ran++
			cancel()
			return []*report.Table{report.New("x", "h").Add("v")}, nil
		},
	}
	never := Experiment{
		ID: "y", Paper: "y", Description: "queued behind the cancel",
		Run: func(context.Context) ([]*report.Table, error) {
			ran++
			return nil, nil
		},
	}
	// Par 1: the worker takes jobs in order, so y is dequeued only after x
	// has cancelled the context and must be skipped.
	results := Run(ctx, []Experiment{cancelling, never}, Options{Par: 1})
	if ran != 1 {
		t.Errorf("ran %d experiments, want 1 (y must be skipped)", ran)
	}
	if results[0].Err != nil {
		t.Errorf("x err = %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, context.Canceled) {
		t.Errorf("y err = %v, want context.Canceled", results[1].Err)
	}

	// A context cancelled before Run starts skips everything.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	for _, r := range Run(pre, []Experiment{cancelling, never}, Options{Par: 2}) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("%s err = %v, want context.Canceled", r.Experiment.ID, r.Err)
		}
	}
}

func TestParallelEachStopsAtCancel(t *testing.T) {
	// Force the serial path so the unit order is deterministic: unit 0
	// cancels, so exactly one unit may run.
	setInnerPar(1)
	defer setInnerPar(runtime.GOMAXPROCS(0))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	err := parallelEach(ctx, 5, func(i int) error {
		ran++
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if ran != 1 {
		t.Errorf("ran %d units after cancellation, want 1", ran)
	}
}
