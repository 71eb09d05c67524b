package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestSamplerRegimesBothEvaluate: the cnn fault study gives the same result
// whether its request is built in Go or decoded from the JSON wire form;
// the result echoes the one stream contract, v3, is plausible, and its
// percentile summary is ordered.
func TestSamplerRegimesBothEvaluate(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the synthetic CNN")
	}
	ctx := context.Background()
	viaGo, err := Evaluate(ctx, &EvalRequest{Backend: "functional", Network: "cnn", Trials: 2, FaultRate: f64(0.01)})
	if err != nil {
		t.Fatal(err)
	}
	var wire EvalRequest
	if err := json.Unmarshal([]byte(`{"backend":"functional","network":"cnn","trials":2,"fault_rate":0.01}`), &wire); err != nil {
		t.Fatal(err)
	}
	viaWire, err := Evaluate(ctx, &wire)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*EvalResult{viaGo, viaWire} {
		a := r.Accuracy
		if a == nil || a.Sampler != "v3" {
			t.Fatalf("result does not echo the v3 contract: %+v", a)
		}
		if a.Analog <= 0.3 || a.Faults <= 0 {
			t.Fatalf("implausible result %+v", a)
		}
		if a.AnalogP10 > a.AnalogP50 || a.AnalogP50 > a.AnalogP90 {
			t.Errorf("percentile summary out of order: %+v", a)
		}
	}
	if *viaGo.Accuracy != *viaWire.Accuracy {
		t.Errorf("Go request result differs from the wire request result: %+v vs %+v", viaGo.Accuracy, viaWire.Accuracy)
	}
}

// TestEvalRequestSampler: a request names no Monte-Carlo stream contract.
// A JSON body carrying "sampler" fails a strict decode as an unknown field
// (timelyd's 400), and the functional result still echoes the one
// contract, v3, in its JSON body.
func TestEvalRequestSampler(t *testing.T) {
	for _, body := range []string{
		`{"backend":"functional","network":"mlp","sampler":"v3"}`,
		`{"backend":"functional","network":"cnn","sampler":""}`,
		`{"backend":"timely","network":"VGG-D","sampler":"v1"}`,
	} {
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		var req EvalRequest
		if err := dec.Decode(&req); err == nil || !strings.Contains(err.Error(), `unknown field "sampler"`) {
			t.Errorf("%s: decode err = %v, want the unknown-field error", body, err)
		}
	}
	if testing.Short() {
		t.Skip("trains the synthetic classifiers")
	}
	r, err := Evaluate(context.Background(), &EvalRequest{Backend: "functional", Network: "mlp", Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := r.Accuracy
	if a == nil || a.Sampler != "v3" {
		t.Fatalf("result does not echo the v3 contract: %+v", a)
	}
	if a.AnalogP10 > a.AnalogP50 || a.AnalogP50 > a.AnalogP90 {
		t.Errorf("percentile summary out of order: %+v", a)
	}
	body, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(`"sampler":"v3"`)) {
		t.Errorf("body does not carry the sampler field: %s", body)
	}
}
