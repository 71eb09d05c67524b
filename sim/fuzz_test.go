package sim

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzEvalRequest decodes arbitrary JSON into an EvalRequest and drives it
// through Evaluate under an already-cancelled context: every option and
// request-shape validation path runs, the Monte-Carlo backends bail out
// before any heavy work, and whatever comes back must be a typed sentinel
// (the contract timelyd relies on to map errors to HTTP statuses) or the
// context error — never a panic, never an anonymous error.
func FuzzEvalRequest(f *testing.F) {
	for _, s := range []string{
		`{"backend":"functional","network":"mlp","trials":2}`,
		`{"backend":"functional","network":"cnn","fault_rate":0.01,"sampler":"v3"}`,
		`{"backend":"functional","network":"mlp","sampler":"bogus"}`,
		`{"backend":"timely","network":"VGG-D"}`,
		`{"backend":"timely","network":"VGG-D","sampler":"v2"}`,
		`{"backend":"prime","network":"nope"}`,
		`{"backend":"","network":"mlp"}`,
		`{"backend":"functional","network":"mlp","trials":-3}`,
		`{"backend":"functional","network":"mlp","noise_ps":-1}`,
		`{"backend":"timely","spec":{"name":"x","input":{"c":1,"h":4,"w":4},"layers":[{"kind":"fc","units":2}]}}`,
		`{"backend":"functional","spec":{"name":"x","input":{"c":1,"h":4,"w":4},"layers":[{"kind":"fc","units":2}]}}`,
		`{"backend":"timely","network":"y","spec":{"name":"x","input":{"c":1,"h":4,"w":4},"layers":[]}}`,
		`{"backend":"timely","spec":{"name":"poolonly","input":{"c":1,"h":8,"w":8},"layers":[{"kind":"maxpool","kernel":2,"stride":2}]}}`,
	} {
		f.Add([]byte(s))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, data []byte) {
		var req EvalRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return // not a request; the decoder's rejection is the contract
		}
		res, err := Evaluate(ctx, &req)
		if err == nil {
			if res == nil {
				t.Fatal("Evaluate returned neither result nor error")
			}
			return // analytic backends complete instantly; fine
		}
		for _, sentinel := range []error{
			ErrUnknownBackend, ErrUnknownNetwork, ErrInvalidOption,
			ErrInvalidSpec, ErrRegistryFull, context.Canceled,
		} {
			if errors.Is(err, sentinel) {
				return
			}
		}
		t.Fatalf("Evaluate returned an untyped error for %q: %v", data, err)
	})
}
