package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestWithSamplerValidation(t *testing.T) {
	for _, bad := range []string{"v4", "V1", "legacy", "2"} {
		if _, err := Open("functional", WithSampler(bad)); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("WithSampler(%q): err = %v, want ErrInvalidOption", bad, err)
		}
	}
	for _, retired := range []string{"v1", "v2"} {
		_, err := Open("functional", WithSampler(retired))
		if !errors.Is(err, ErrInvalidOption) || !strings.Contains(err.Error(), "d9a0b33") {
			t.Errorf("WithSampler(%q): err = %v, want ErrInvalidOption naming d9a0b33", retired, err)
		}
	}
	for _, ok := range []string{"v3", ""} {
		if _, err := Open("functional", WithSampler(ok)); err != nil {
			t.Errorf("WithSampler(%q): unexpected err %v", ok, err)
		}
	}
}

func TestWithSamplerInapplicableToAnalytic(t *testing.T) {
	for _, backend := range []string{"timely", "prime", "isaac"} {
		if _, err := Open(backend, WithSampler("v3")); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("%s: err = %v, want ErrInvalidOption", backend, err)
		}
	}
}

// TestSamplerRegimesBothEvaluate: the cnn fault study gives the same
// result whether the v3 contract is named explicitly or left to the
// default, the result echoes v3, and it is plausible.
func TestSamplerRegimesBothEvaluate(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the synthetic CNN")
	}
	ctx := context.Background()
	var res []*EvalResult
	for _, opts := range [][]Option{
		{WithTrials(2), WithFaultRate(0.01), WithSampler("v3")},
		{WithTrials(2), WithFaultRate(0.01)},
	} {
		b, err := Open("functional", opts...)
		if err != nil {
			t.Fatal(err)
		}
		r, err := b.Evaluate(ctx, "cnn")
		if err != nil {
			t.Fatal(err)
		}
		if r.Accuracy == nil || r.Accuracy.Sampler != "v3" {
			t.Fatalf("result does not echo the v3 regime: %+v", r.Accuracy)
		}
		if r.Accuracy.Analog <= 0.3 || r.Accuracy.Faults <= 0 {
			t.Fatalf("implausible result %+v", r.Accuracy)
		}
		res = append(res, r)
	}
	if *res[0].Accuracy != *res[1].Accuracy {
		t.Errorf("explicit v3 result differs from the default: %+v vs %+v", res[0].Accuracy, res[1].Accuracy)
	}
	// Percentile summary: ordered and bracketing the mean.
	a := res[1].Accuracy
	if a.AnalogP10 > a.AnalogP50 || a.AnalogP50 > a.AnalogP90 {
		t.Errorf("percentile summary out of order: %+v", a)
	}
}

// TestEvalRequestSampler: the JSON request form carries the regime, and an
// invalid or retired spelling fails with the typed option error.
func TestEvalRequestSampler(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the synthetic classifiers")
	}
	ctx := context.Background()
	r, err := Evaluate(ctx, &EvalRequest{Backend: "functional", Network: "mlp", Trials: 2, Sampler: "v3"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Accuracy == nil || r.Accuracy.Sampler != "v3" {
		t.Fatalf("request sampler not honoured: %+v", r.Accuracy)
	}
	for _, bad := range []string{"nope", "v1", "v2"} {
		if _, err := Evaluate(ctx, &EvalRequest{Backend: "functional", Network: "mlp", Sampler: bad}); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("sampler %q err = %v, want ErrInvalidOption", bad, err)
		}
	}
	if _, err := Evaluate(ctx, &EvalRequest{Backend: "timely", Network: "VGG-D", Sampler: "v3"}); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("sampler on analytic backend err = %v, want ErrInvalidOption", err)
	}
}
