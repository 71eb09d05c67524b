package sim

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// FuzzEvalRequest decodes arbitrary JSON into an EvalRequest and drives it
// through Evaluate: whatever comes back must be a typed sentinel (the
// contract timelyd relies on to map errors to HTTP statuses) or the
// context error — never a panic, never an anonymous error. The analytic
// backends run under a live context, so every spec they accept is lowered
// and costed all the way through; the functional and timing backends run
// under an already-cancelled one, so every option and request-shape
// validation path runs but they bail out before any heavy work.
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
		`{"backend":"prime","spec":{"name":"poolonly","input":{"c":1,"h":8,"w":8},"layers":[{"kind":"maxpool","kernel":2,"stride":2}]}}`,
		`{"backend":"isaac","spec":{"name":"poolonly","input":{"c":1,"h":8,"w":8},"layers":[{"kind":"maxpool","kernel":2,"stride":2}]}}`,
		`{"backend":"functional","network":"mlp","sampler":"v1"}`,
	} {
		f.Add([]byte(s))
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, data []byte) {
		var req EvalRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return // not a request; the decoder's rejection is the contract
		}
		ctx := cancelled
		switch req.Backend {
		case "timely", "prime", "isaac":
			ctx = context.Background()
		}
		res, err := Evaluate(ctx, &req)
		if err == nil {
			if res == nil {
				t.Fatal("Evaluate returned neither result nor error")
			}
			return
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

// keyNetworks are the networks FuzzEvalKeys draws from: the Table III zoo
// by name, then small inline specs. The last two spell one network two
// ways (explicit stride 1 and kernel_h/kernel_w, a named pool), which
// Keys must key alike and Evaluate must answer alike.
var keyNetworks = append(ZooNetworks(),
	`{"name":"tiny","input":{"c":1,"h":4,"w":4},"layers":[{"kind":"fc","units":2}]}`,
	`{"name":"conv","input":{"c":3,"h":16,"w":16},"layers":[{"kind":"conv","filters":8,"kernel":3,"pad":1},{"kind":"maxpool","kernel":2,"stride":2},{"kind":"fc","units":10}]}`,
	`{"name":"conv","input":{"c":3,"h":16,"w":16},"layers":[{"kind":"conv","filters":8,"kernel_h":3,"kernel_w":3,"stride":1,"pad":1},{"name":"maxpool1","kind":"maxpool","kernel":2,"stride":2},{"kind":"fc","units":10}]}`,
)

// FuzzEvalKeys: a pair of analytic requests, the second perturbing one
// field of the first (backend, network, bits, chips, sub_chips or gamma).
// Equal cache keys must mean byte-identical json.MarshalIndent bodies
// (elapsed_ms zeroed), or equal errors. Different keys with equal bodies
// are allowed: Keys hashes χ and γ as set, so an explicit Table II gamma
// and an omitted one are two keys for one result. The defaulted fields
// share a key (TestKeysEquivalence).
func FuzzEvalKeys(f *testing.F) {
	// backend, network, bits, chips, sub_chips, gamma, field, value
	f.Add(uint8(0), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(2), uint8(1))
	f.Add(uint8(0), uint8(15), uint8(0), uint8(2), uint8(0), uint8(0), uint8(1), uint8(16))
	f.Add(uint8(0), uint8(16), uint8(2), uint8(0), uint8(3), uint8(4), uint8(1), uint8(17))
	f.Add(uint8(1), uint8(2), uint8(0), uint8(4), uint8(0), uint8(0), uint8(3), uint8(5))
	f.Add(uint8(2), uint8(16), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(0), uint8(1), uint8(1), uint8(0), uint8(0), uint8(8), uint8(5), uint8(0))
	backends := []string{"timely", "prime", "isaac"}
	// Index 0 leaves a field unset; the rest include out-of-range values,
	// so equal keys must also mean equal errors.
	bits := []int{0, 8, 16, 4}
	set := func(r *EvalRequest, field, v uint8) {
		switch field % 6 {
		case 0:
			r.Backend = backends[int(v)%len(backends)]
		case 1:
			r.Network, r.Spec = keyNetworks[int(v)%len(keyNetworks)], nil
			if strings.HasPrefix(r.Network, "{") {
				r.Spec = new(NetworkSpec)
				if err := json.Unmarshal([]byte(r.Network), r.Spec); err != nil {
					panic(err)
				}
				r.Network = ""
			}
		case 2:
			r.Bits = bits[int(v)%len(bits)]
		case 3:
			r.Chips = int(v % 70)
		case 4:
			r.SubChips = int(v % 12)
		case 5:
			r.Gamma = int(v % 40)
		}
	}
	outcome := func(r *EvalRequest) string {
		res, err := Evaluate(context.Background(), r)
		if err != nil {
			return "error: " + err.Error()
		}
		res.ElapsedMS = 0
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			panic(err)
		}
		return string(b)
	}
	f.Fuzz(func(t *testing.T, backend, network, b, chips, sub, gamma, field, value uint8) {
		var reqs [2]EvalRequest
		for i := range reqs {
			r := &reqs[i]
			for fl, v := range []uint8{backend, network, b, chips, sub, gamma} {
				set(r, uint8(fl), v)
			}
		}
		set(&reqs[1], field, value)
		k0, _, err0 := reqs[0].Keys()
		k1, _, err1 := reqs[1].Keys()
		if err0 != nil || err1 != nil || k0 != k1 {
			return
		}
		if a, b := outcome(&reqs[0]), outcome(&reqs[1]); a != b {
			t.Fatalf("key %s gives two answers:\n%s\n%s", k0, a, b)
		}
	})
}
