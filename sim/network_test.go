package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// tinySpec is a small custom CNN that is deliberately not in the zoo.
func tinySpec(name string) *NetworkSpec {
	return &NetworkSpec{
		Name:  name,
		Input: NetworkDims{C: 3, H: 32, W: 32},
		Layers: []NetworkLayer{
			{Name: "conv1", Kind: "conv", Filters: 16, Kernel: 3, Pad: 1},
			{Kind: "maxpool", Kernel: 2, Stride: 2},
			{Name: "conv2", Kind: "conv", Filters: 32, Kernel: 3, Pad: 1},
			{Kind: "maxpool", Kernel: 2, Stride: 2},
			{Name: "fc", Kind: "fc", Units: 10},
		},
	}
}

func TestEvaluateInlineSpec(t *testing.T) {
	ctx := context.Background()
	res, err := Evaluate(ctx, &EvalRequest{Backend: "timely", Spec: tinySpec("tiny-inline")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Network != "tiny-inline" || res.EnergyMJPerImage <= 0 || res.ImagesPerSec <= 0 {
		t.Errorf("result = %+v", res)
	}
	if res.SpecHash == "" {
		t.Errorf("custom evaluation carries no spec hash")
	}
	if res.AreaMM2 <= 0 {
		t.Errorf("timely custom evaluation has no area")
	}

	// The same spec evaluates on the baselines too.
	for _, backend := range []string{"prime", "isaac"} {
		r, err := Evaluate(ctx, &EvalRequest{Backend: backend, Spec: tinySpec("tiny-inline")})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if r.EnergyMJPerImage <= 0 {
			t.Errorf("%s energy = %v", backend, r.EnergyMJPerImage)
		}
	}

	// The functional backend cannot take arbitrary specs.
	_, err = Evaluate(ctx, &EvalRequest{Backend: "functional", Spec: tinySpec("tiny-inline")})
	if !errors.Is(err, ErrInvalidOption) {
		t.Errorf("functional spec evaluation err = %v, want ErrInvalidOption", err)
	}

	// Network/spec name disagreement is rejected.
	_, err = Evaluate(ctx, &EvalRequest{Backend: "timely", Network: "other", Spec: tinySpec("tiny-inline")})
	if !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("name mismatch err = %v, want ErrInvalidSpec", err)
	}

	// An agreeing name is fine.
	if _, err := Evaluate(ctx, &EvalRequest{Backend: "timely", Network: "tiny-inline", Spec: tinySpec("tiny-inline")}); err != nil {
		t.Errorf("agreeing name rejected: %v", err)
	}

	// Invalid inline specs surface as ErrInvalidSpec with the typed detail.
	bad := tinySpec("tiny-bad")
	bad.Layers[0].Filters = 0
	_, err = Evaluate(ctx, &EvalRequest{Backend: "timely", Spec: bad})
	if !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("invalid spec err = %v, want ErrInvalidSpec", err)
	}
	var se *SpecError
	if !errors.As(err, &se) || se.Field != "filters" {
		t.Errorf("invalid spec err = %v, want wrapped *SpecError on filters", err)
	}
}

// TestEvaluateInlineSpecJSON exercises the exact wire form timelyd accepts:
// a request with an embedded spec decoded from JSON.
func TestEvaluateInlineSpecJSON(t *testing.T) {
	raw := `{
		"backend": "timely",
		"chips": 2,
		"spec": {
			"name": "wire-net",
			"input": {"c": 1, "h": 28, "w": 28},
			"layers": [
				{"name": "c1", "kind": "conv", "filters": 8, "kernel": 5},
				{"kind": "avgpool", "kernel": 2, "stride": 2},
				{"kind": "fc", "units": 10}
			]
		}
	}`
	var req EvalRequest
	if err := json.Unmarshal([]byte(raw), &req); err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(context.Background(), &req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Network != "wire-net" || res.Chips != 2 || res.EnergyMJPerImage <= 0 {
		t.Errorf("result = %+v", res)
	}
}

// TestEvaluateWeightlessSpec: a network of pool layers alone has nothing
// to map onto crossbars, and every spec backend rejects it as an invalid
// spec rather than evaluating it.
func TestEvaluateWeightlessSpec(t *testing.T) {
	spec := &NetworkSpec{
		Name:   "poolonly",
		Input:  NetworkDims{C: 1, H: 8, W: 8},
		Layers: []NetworkLayer{{Kind: "maxpool", Kernel: 2, Stride: 2}},
	}
	for _, backend := range []string{"timely", "prime", "isaac", "timing"} {
		_, err := Evaluate(context.Background(), &EvalRequest{Backend: backend, Spec: spec})
		var se *SpecError
		if !errors.Is(err, ErrInvalidSpec) || !errors.As(err, &se) || se.Field != "layers" {
			t.Errorf("%s: err = %v, want ErrInvalidSpec on field layers", backend, err)
		}
	}
}

func TestEvaluateSpecHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, backend := range []string{"timely", "prime", "isaac", "timing"} {
		req := &EvalRequest{Backend: backend, Spec: tinySpec("tiny-cancel")}
		if _, err := Evaluate(ctx, req); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", backend, err)
		}
	}
}

func TestRegisterNetwork(t *testing.T) {
	info, err := RegisterNetwork(tinySpec("tiny-registered"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Layers != 5 || info.MACs <= 0 || info.Params <= 0 || info.Hash == "" {
		t.Errorf("info = %+v", info)
	}

	// Idempotent for the identical spec.
	again, err := RegisterNetwork(tinySpec("tiny-registered"))
	if err != nil {
		t.Fatalf("idempotent re-register: %v", err)
	}
	if again.Hash != info.Hash {
		t.Errorf("re-register hash changed: %s vs %s", again.Hash, info.Hash)
	}

	// Same name, different network: conflict.
	other := tinySpec("tiny-registered")
	other.Layers[0].Filters = 99
	if _, err := RegisterNetwork(other); !errors.Is(err, ErrDuplicateNetwork) {
		t.Errorf("conflicting register err = %v, want ErrDuplicateNetwork", err)
	}

	// Zoo names are reserved.
	if _, err := RegisterNetwork(tinySpec("VGG-D")); !errors.Is(err, ErrDuplicateNetwork) {
		t.Errorf("zoo-name register err = %v, want ErrDuplicateNetwork", err)
	}

	// Invalid and nil specs are rejected.
	if _, err := RegisterNetwork(nil); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("nil spec err = %v, want ErrInvalidSpec", err)
	}
	bad := tinySpec("tiny-invalid")
	bad.Layers[4].Units = 0
	if _, err := RegisterNetwork(bad); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("invalid spec err = %v, want ErrInvalidSpec", err)
	}

	// Registered networks evaluate by name on every analytic backend.
	res, err := Evaluate(context.Background(), &EvalRequest{Backend: "timely", Network: "tiny-registered"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Network != "tiny-registered" || res.SpecHash != info.Hash {
		t.Errorf("registered eval = %+v, want spec hash %s", res, info.Hash)
	}
	for _, backend := range []string{"prime", "isaac", "timing"} {
		res, err := Evaluate(context.Background(), &EvalRequest{Backend: backend, Network: "tiny-registered"})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res.SpecHash != info.Hash {
			t.Errorf("%s: spec hash %s, want %s", backend, res.SpecHash, info.Hash)
		}
	}

	// The default registry lists it.
	listed := false
	for _, i := range defaultRegistry.Networks() {
		if i.Name == "tiny-registered" && i.Hash == info.Hash {
			listed = true
		}
	}
	if !listed {
		t.Errorf("default registry does not list tiny-registered")
	}
}

// TestRegistryNetworks: a registry lists what it holds, sorted by name, and
// nothing another registry holds.
func TestRegistryNetworks(t *testing.T) {
	var a, b Registry
	for _, name := range []string{"tiny-b", "tiny-a", "tiny-c"} {
		if _, err := a.Register(tinySpec(name)); err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	for _, i := range a.Networks() {
		names = append(names, i.Name)
	}
	if got := strings.Join(names, ","); got != "tiny-a,tiny-b,tiny-c" {
		t.Errorf("Networks() = %s, want tiny-a,tiny-b,tiny-c", got)
	}
	if n := len(b.Networks()); n != 0 {
		t.Errorf("a fresh registry lists %d networks", n)
	}
}

// TestRegistryConcurrent: registrations, resolutions and listings from
// several goroutines at once (run under -race).
func TestRegistryConcurrent(t *testing.T) {
	var g Registry
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("tiny-conc-%d", i%4)
			if _, err := g.Register(tinySpec(name)); err != nil {
				t.Error(err)
				return
			}
			req := EvalRequest{Backend: "timely", Network: name}
			if err := g.Resolve(&req); err != nil || req.Spec == nil {
				t.Errorf("%s: Resolve = %v", name, err)
			}
			g.Networks()
		}(i)
	}
	wg.Wait()
	if n := len(g.Networks()); n != 4 {
		t.Errorf("%d networks registered, want 4", n)
	}
}

// TestRegistryCap proves registration stops at the capacity limit with the
// typed sentinel, and that an existing entry still re-registers there.
func TestRegistryCap(t *testing.T) {
	var g Registry
	for i := 0; i < maxRegisteredNetworks; i++ {
		if _, err := g.Register(tinySpec(fmt.Sprintf("tiny-cap-%d", i))); err != nil {
			t.Fatalf("register %d under the cap: %v", i, err)
		}
	}
	if _, err := g.Register(tinySpec("tiny-cap-over")); !errors.Is(err, ErrRegistryFull) {
		t.Errorf("register at the cap err = %v, want ErrRegistryFull", err)
	}
	if _, err := g.Register(tinySpec("tiny-cap-0")); err != nil {
		t.Errorf("idempotent re-register at cap: %v", err)
	}
}

// TestCustomDesignSpecEvaluation proves custom χ/γ design points evaluate
// inline specs directly (bypassing the shared-design cache) and differ
// from the default design.
func TestCustomDesignSpecEvaluation(t *testing.T) {
	ctx := context.Background()
	def, err := Evaluate(ctx, &EvalRequest{Backend: "timely", Spec: tinySpec("tiny-design")})
	if err != nil {
		t.Fatal(err)
	}
	small, err := Evaluate(ctx, &EvalRequest{Backend: "timely", SubChips: 4, Spec: tinySpec("tiny-design")})
	if err != nil {
		t.Fatal(err)
	}
	if small.AreaMM2 >= def.AreaMM2 {
		t.Errorf("4-sub-chip area %v not below default %v", small.AreaMM2, def.AreaMM2)
	}
}

// TestSpecHashStableAcrossSpellings pins the facade-level canonicalization:
// the memo key must not depend on how the user spelled the spec.
func TestSpecHashStableAcrossSpellings(t *testing.T) {
	a := tinySpec("tiny-spelling")
	b := tinySpec("tiny-spelling")
	b.Layers[0].Kernel = 0
	b.Layers[0].KernelH, b.Layers[0].KernelW = 3, 3
	b.Layers[0].Stride = 1
	ra, err := Evaluate(context.Background(), &EvalRequest{Backend: "timely", Spec: a})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Evaluate(context.Background(), &EvalRequest{Backend: "timely", Spec: b})
	if err != nil {
		t.Fatal(err)
	}
	if ra.SpecHash != rb.SpecHash {
		t.Errorf("spellings hash differently: %s vs %s", ra.SpecHash, rb.SpecHash)
	}
	if ra.EnergyMJPerImage != rb.EnergyMJPerImage {
		t.Errorf("spellings evaluate differently")
	}
}

// TestZooVsSpecEquivalence proves an inline spec exported from a zoo
// network evaluates to exactly the zoo result (modulo the memo key).
func TestZooVsSpecEquivalence(t *testing.T) {
	ctx := context.Background()
	byName, err := Evaluate(ctx, &EvalRequest{Backend: "timely", Network: "CNN-1"})
	if err != nil {
		t.Fatal(err)
	}
	spec := mustZooSpec(t, "CNN-1")
	spec.Name = "cnn1-as-spec"
	bySpec, err := Evaluate(ctx, &EvalRequest{Backend: "timely", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if byName.EnergyMJPerImage != bySpec.EnergyMJPerImage ||
		byName.ImagesPerSec != bySpec.ImagesPerSec ||
		byName.TOPsPerWatt != bySpec.TOPsPerWatt {
		t.Errorf("zoo %+v != spec %+v", byName, bySpec)
	}
}

// mustZooSpec exports a zoo network's declarative spec.
func mustZooSpec(t *testing.T, name string) *NetworkSpec {
	t.Helper()
	spec, err := ZooSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestZooSpecExport(t *testing.T) {
	spec, err := ZooSpec("VGG-D")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "VGG-D" || len(spec.Layers) != 21 {
		t.Errorf("ZooSpec(VGG-D) = %s with %d layers", spec.Name, len(spec.Layers))
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"kind":"conv"`) {
		t.Errorf("exported spec JSON looks wrong: %s", raw[:80])
	}
	if _, err := ZooSpec("GPT-7"); !errors.Is(err, ErrUnknownNetwork) {
		t.Errorf("unknown zoo spec err = %v, want ErrUnknownNetwork", err)
	}
}

// TestResolveMatchesByName: a request resolved through a registry and sent
// over the wire evaluates to the bytes by-name evaluation gives (elapsed_ms
// aside), on every backend that takes a custom network, and keys like the
// same spec sent inline.
func TestResolveMatchesByName(t *testing.T) {
	spec := tinySpec("tiny-resolve")
	if _, err := RegisterNetwork(spec); err != nil {
		t.Fatal(err)
	}
	var g Registry
	if _, err := g.Register(spec); err != nil {
		t.Fatal(err)
	}
	body := func(req *EvalRequest) string {
		res, err := Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		res.ElapsedMS = 0
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, backend := range []string{"timely", "prime", "isaac", "timing"} {
		req := EvalRequest{Backend: backend, Network: "tiny-resolve"}
		if err := g.Resolve(&req); err != nil || req.Spec == nil {
			t.Fatalf("%s: Resolve = %v, spec %v", backend, err, req.Spec)
		}
		wire, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		var sent EvalRequest
		if err := json.Unmarshal(wire, &sent); err != nil {
			t.Fatal(err)
		}
		if got, want := body(&sent), body(&EvalRequest{Backend: backend, Network: "tiny-resolve"}); got != want {
			t.Errorf("%s: resolved body differs from by-name:\n%s\nvs\n%s", backend, got, want)
		}
		ck, _, err := sent.Keys()
		if err != nil {
			t.Fatal(err)
		}
		inline, _, err := (&EvalRequest{Backend: backend, Spec: spec}).Keys()
		if err != nil {
			t.Fatal(err)
		}
		if ck != inline {
			t.Errorf("%s: resolved key %s, inline %s", backend, ck, inline)
		}
	}
}
