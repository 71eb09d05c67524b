package sim

import (
	"context"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"
)

func TestBackendsListsBuiltins(t *testing.T) {
	want := []string{"functional", "isaac", "prime", "timely", "timing"}
	if got := Backends(); !slices.Equal(got, want) {
		t.Errorf("Backends() = %v, want %v", got, want)
	}
	// The list is the caller's to keep.
	Backends()[0] = "mutated"
	if got := Backends(); !slices.Equal(got, want) {
		t.Errorf("Backends() after a caller's write = %v", got)
	}
}

func TestEvaluateUnknownBackend(t *testing.T) {
	req := &EvalRequest{Backend: "resistive-unicorn", Network: "VGG-D"}
	if _, err := Evaluate(context.Background(), req); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("err = %v, want ErrUnknownBackend", err)
	}
	if _, err := DesignPoint(req); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("DesignPoint err = %v, want ErrUnknownBackend", err)
	}
}

func TestOptionRangeValidation(t *testing.T) {
	cases := []struct {
		name string
		req  EvalRequest
	}{
		{"bits 7", EvalRequest{Bits: 7}},
		{"bits -1", EvalRequest{Bits: -1}},
		{"chips -1", EvalRequest{Chips: -1}},
		{"subchips -1", EvalRequest{SubChips: -1}},
		{"gamma -1", EvalRequest{Gamma: -1}},
		{"noise -1", EvalRequest{NoisePS: f64(-1)}},
		{"fault 1.5", EvalRequest{FaultRate: f64(1.5)}},
		{"fault -0.1", EvalRequest{FaultRate: f64(-0.1)}},
		{"trials -1", EvalRequest{Trials: -1}},
	}
	for _, tc := range cases {
		tc.req.Backend, tc.req.Network = "timely", "VGG-D"
		if _, err := Evaluate(context.Background(), &tc.req); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("%s: err = %v, want ErrInvalidOption", tc.name, err)
		}
		if _, err := DesignPoint(&tc.req); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("%s: DesignPoint err = %v, want ErrInvalidOption", tc.name, err)
		}
	}
}

func TestInapplicableOptionCombinations(t *testing.T) {
	cases := []EvalRequest{
		{Backend: "timely", NoisePS: f64(10)},
		{Backend: "timely", FaultRate: f64(0.1)},
		{Backend: "timely", Seed: u64(1)},
		{Backend: "timely", Trials: 3},
		{Backend: "prime", Bits: 16},
		{Backend: "prime", Gamma: 4},
		{Backend: "isaac", SubChips: 10},
		{Backend: "isaac", NoisePS: f64(10)},
		{Backend: "functional", Network: "mlp", Bits: 8},
		{Backend: "functional", Network: "mlp", Chips: 2},
		{Backend: "functional", Network: "mlp", SubChips: 10},
		{Backend: "functional", Network: "mlp", Gamma: 4},
		// Workload-specific rejections.
		{Backend: "functional", Network: "mlp", FaultRate: f64(0.01)},
		{Backend: "functional", Network: "cnn", NoisePS: f64(10)},
	}
	for _, req := range cases {
		if req.Network == "" {
			req.Network = "VGG-D"
		}
		if _, err := Evaluate(context.Background(), &req); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("%+v: err = %v, want ErrInvalidOption", req, err)
		}
	}
}

func TestAnalyticEvaluate(t *testing.T) {
	for _, name := range []string{"timely", "prime", "isaac"} {
		res, err := Evaluate(context.Background(), &EvalRequest{Backend: name, Network: "VGG-D"})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Backend != name || res.Network != "VGG-D" || res.Chips != 1 {
			t.Errorf("%s: result header = %+v", name, res)
		}
		if res.EnergyMJPerImage <= 0 || res.ImagesPerSec <= 0 || res.TOPsPerWatt <= 0 {
			t.Errorf("%s: non-positive metrics: %+v", name, res)
		}
		if res.Fits == nil {
			t.Errorf("%s: Fits not reported", name)
		}
		if len(res.EnergyBreakdown) == 0 || len(res.MovementByClass) != 3 {
			t.Errorf("%s: breakdown missing (%d components, %d classes)",
				name, len(res.EnergyBreakdown), len(res.MovementByClass))
		}
		if name == "timely" && res.AreaMM2 <= 0 {
			t.Errorf("timely: AreaMM2 = %v", res.AreaMM2)
		}
		if _, err := Evaluate(context.Background(), &EvalRequest{Backend: name, Network: "NOPE-9"}); !errors.Is(err, ErrUnknownNetwork) {
			t.Errorf("%s: unknown network err = %v", name, err)
		}
	}
}

func TestTimelyDesignPointAndOverrides(t *testing.T) {
	ctx := context.Background()
	req := &EvalRequest{Backend: "timely", Network: "VGG-D", Gamma: 4, SubChips: 106, Chips: 2}
	des, err := DesignPoint(req)
	if err != nil {
		t.Fatal(err)
	}
	if des.Gamma != 4 || des.SubChipsPerChip != 106 {
		t.Errorf("design = %+v, want gamma 4, chi 106", des)
	}
	if des.CycleNS != 100 { // 4 × 25 ns
		t.Errorf("CycleNS = %v, want 100", des.CycleNS)
	}
	if des.SubChipAreaMM2 <= 0 || des.PeakTOPSPerSubChip <= 0 || des.DensityTOPsPerMM2 <= 0 {
		t.Errorf("non-positive design point: %+v", des)
	}
	// The network is not consulted.
	if _, err := DesignPoint(&EvalRequest{Backend: "timely"}); err != nil {
		t.Errorf("design point without a network: %v", err)
	}
	// Baselines expose no parameterised design.
	if _, err := DesignPoint(&EvalRequest{Backend: "prime"}); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("prime design point err = %v, want ErrInvalidOption", err)
	}
	// χ override flows into the evaluation (more sub-chips, more area).
	rs, err := Evaluate(ctx, &EvalRequest{Backend: "timely", Network: "VGG-D", SubChips: 53})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Evaluate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if rb.AreaMM2 <= rs.AreaMM2 {
		t.Errorf("area did not grow with chi and chips: %v vs %v", rb.AreaMM2, rs.AreaMM2)
	}
	if want := des.ChipAreaMM2 * 2; rb.AreaMM2 != want {
		t.Errorf("AreaMM2 = %v, want the design point's chip area × 2 = %v", rb.AreaMM2, want)
	}
}

func TestEvaluateRequestRoundTrip(t *testing.T) {
	raw := `{"backend":"timely","network":"CNN-1","bits":16,"chips":16}`
	var req EvalRequest
	if err := json.Unmarshal([]byte(raw), &req); err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chips != 16 {
		t.Errorf("Chips = %d, want 16", res.Chips)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"backend":"timely"`, `"network":"CNN-1"`, `"energy_mj_per_image"`, `"elapsed_ms"`} {
		if !strings.Contains(string(blob), key) {
			t.Errorf("marshalled result missing %s: %s", key, blob)
		}
	}
	// Requests without backend/network fail with the typed errors.
	if _, err := Evaluate(context.Background(), &EvalRequest{Network: "VGG-D"}); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("missing backend err = %v", err)
	}
	if _, err := Evaluate(context.Background(), &EvalRequest{Backend: "timely"}); !errors.Is(err, ErrUnknownNetwork) {
		t.Errorf("missing network err = %v", err)
	}
}

func TestEvaluateHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, req := range []EvalRequest{
		{Backend: "timely", Network: "VGG-D"},
		{Backend: "timely", Spec: tinySpec("tiny-cancel")},
		{Backend: "timing", Network: "VGG-D"},
		{Backend: "functional", Network: "mlp"},
	} {
		name := req.Backend
		if _, err := Evaluate(ctx, &req); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

func TestFunctionalEvaluate(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the synthetic classifiers")
	}
	ctx := context.Background()
	mlpReq := &EvalRequest{Backend: "functional", Network: "mlp", Trials: 2}
	mlp, err := Evaluate(ctx, mlpReq)
	if err != nil {
		t.Fatal(err)
	}
	acc := mlp.Accuracy
	if acc == nil || acc.Analog <= 0.5 || acc.Int <= 0.5 || acc.Float <= 0.5 {
		t.Fatalf("implausible mlp accuracy: %+v", acc)
	}
	if acc.Trials != 2 || acc.MarginPS <= 0 {
		t.Errorf("mlp stats = %+v", acc)
	}
	// Determinism: same config, same result.
	again, err := Evaluate(ctx, mlpReq)
	if err != nil {
		t.Fatal(err)
	}
	if *again.Accuracy != *acc {
		t.Errorf("repeat evaluation differs: %+v vs %+v", again.Accuracy, acc)
	}

	cnn, err := Evaluate(ctx, &EvalRequest{Backend: "functional", Network: "cnn", Trials: 2, FaultRate: f64(0.01)})
	if err != nil {
		t.Fatal(err)
	}
	if cnn.Accuracy == nil || cnn.Accuracy.Analog <= 0.3 || cnn.Accuracy.Faults <= 0 {
		t.Errorf("implausible cnn result: %+v", cnn.Accuracy)
	}
	if _, err := Evaluate(ctx, &EvalRequest{Backend: "functional", Network: "transformer", Trials: 2, FaultRate: f64(0.01)}); !errors.Is(err, ErrUnknownNetwork) {
		t.Errorf("unknown workload err = %v", err)
	}
}
