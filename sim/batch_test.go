package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func uintp(v uint64) *uint64 { return &v }

func TestKeysBatchAndCache(t *testing.T) {
	base := func() *EvalRequest {
		return &EvalRequest{Backend: "functional", Network: "cnn", Trials: 2}
	}
	cacheA, batchA, err := base().Keys()
	if err != nil {
		t.Fatal(err)
	}
	// Distinct seeds share the batch key (they group) but not the cache key
	// (they never dedup).
	r1, r2 := base(), base()
	r1.Seed, r2.Seed = uintp(1), uintp(2)
	cache1, batch1, err := r1.Keys()
	if err != nil {
		t.Fatal(err)
	}
	cache2, batch2, _ := r2.Keys()
	if batch1 != batch2 {
		t.Errorf("distinct seeds split the batch key:\n%s\n%s", batch1, batch2)
	}
	if cache1 == cache2 {
		t.Errorf("distinct seeds shared a cache key: %s", cache1)
	}
	// An unset seed is the workload's default seed: it groups with set
	// seeds, and keys the computation by that default.
	if batchA != batch1 {
		t.Errorf("seed-set and seed-unset requests split the batch key")
	}
	if cacheA == cache1 {
		t.Errorf("seed-unset request shared seed 1's cache key")
	}
	// Any other resolved-field difference splits the batch key.
	r3 := base()
	r3.Trials = 3
	_, batch3, _ := r3.Keys()
	if batch3 == batchA {
		t.Errorf("different trials shared a batch key")
	}
}

func TestKeysSpecHashIdentity(t *testing.T) {
	spec := func(name string) *NetworkSpec {
		return &NetworkSpec{
			Name:  name,
			Input: NetworkDims{C: 1, H: 12, W: 12},
			Layers: []NetworkLayer{
				{Name: "c1", Kind: "conv", Filters: 4, Kernel: 3, Pad: 1},
				{Name: "out", Kind: "fc", Units: 3},
			},
		}
	}
	a := &EvalRequest{Backend: "timely", Spec: spec("net-a")}
	b := &EvalRequest{Backend: "timely", Spec: spec("net-a")}
	cacheA, _, err := a.Keys()
	if err != nil {
		t.Fatal(err)
	}
	cacheB, _, _ := b.Keys()
	if cacheA != cacheB {
		t.Errorf("identical inline specs keyed differently")
	}
	// Same layers, different name: different response body, different key.
	c := &EvalRequest{Backend: "timely", Spec: spec("net-c")}
	cacheC, _, _ := c.Keys()
	if cacheC == cacheA {
		t.Errorf("differently-named specs shared a key")
	}
}

func TestKeysErrors(t *testing.T) {
	if _, _, err := (&EvalRequest{}).Keys(); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("no backend: %v", err)
	}
	if _, _, err := (&EvalRequest{Backend: "timely"}).Keys(); !errors.Is(err, ErrUnknownNetwork) {
		t.Errorf("no network: %v", err)
	}
	r := &EvalRequest{Backend: "timely", Network: "x",
		Spec: &NetworkSpec{Name: "y", Input: NetworkDims{C: 1, H: 4, W: 4},
			Layers: []NetworkLayer{{Name: "out", Kind: "fc", Units: 2}}}}
	if _, _, err := r.Keys(); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("name mismatch: %v", err)
	}
	bad := &EvalRequest{Backend: "timely",
		Spec: &NetworkSpec{Name: "bad", Input: NetworkDims{C: 1, H: 4, W: 4},
			Layers: []NetworkLayer{{Name: "l", Kind: "warp", Units: 2}}}}
	if _, _, err := bad.Keys(); !errors.Is(err, ErrInvalidSpec) {
		t.Errorf("invalid spec: %v", err)
	}
}

// TestKeysEscapesClientStrings: a network name crafted to mimic another
// request's key encoding must not collide with it.
func TestKeysEscapesClientStrings(t *testing.T) {
	honest := &EvalRequest{Backend: "timely", Network: "CNN-1", Bits: 8}
	forged := &EvalRequest{Backend: "timely", Network: `CNN-1"|bits=8`}
	_, bh, err := honest.Keys()
	if err != nil {
		t.Fatal(err)
	}
	_, bf, err := forged.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if bh == bf {
		t.Errorf("forged network name collided with an honest key: %s", bh)
	}
	if !strings.Contains(bf, `\"`) {
		t.Errorf("client string not escaped in key: %s", bf)
	}
}

// TestEvaluateBatchFusedIdentity: a multi-seed functional group returns,
// member by member, exactly what Evaluate returns for each request alone
// (ElapsedMS excepted — it is wall clock, zeroed before comparing).
func TestEvaluateBatchFusedIdentity(t *testing.T) {
	ctx := context.Background()
	for _, network := range []string{"mlp", "cnn"} {
		reqs := []*EvalRequest{
			{Backend: "functional", Network: network, Trials: 2},
			{Backend: "functional", Network: network, Trials: 2},
		}
		reqs[0].Seed = uintp(2020)
		reqs[1].Seed = uintp(2021)
		vals, errs := EvaluateBatch(ctx, reqs)
		for i, r := range reqs {
			if errs[i] != nil {
				t.Fatalf("%s member %d: %v", network, i, errs[i])
			}
			want, err := Evaluate(ctx, r)
			if err != nil {
				t.Fatal(err)
			}
			got := *vals[i]
			got.ElapsedMS, want.ElapsedMS = 0, 0
			if !reflect.DeepEqual(&got, want) {
				t.Errorf("%s member %d: batched %+v != single %+v", network, i, &got, want)
			}
		}
	}
}

// TestEvaluateBatchPerRequestFallback: analytic groups and error-carrying
// groups evaluate member by member with per-request errors.
func TestEvaluateBatchPerRequestFallback(t *testing.T) {
	ctx := context.Background()
	reqs := []*EvalRequest{
		{Backend: "timely", Network: "CNN-1", Chips: 2},
		{Backend: "timely", Network: "no-such-network", Chips: 2},
	}
	vals, errs := EvaluateBatch(ctx, reqs)
	if errs[0] != nil || vals[0] == nil {
		t.Fatalf("member 0: (%v, %v)", vals[0], errs[0])
	}
	want, err := Evaluate(ctx, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	got := *vals[0]
	got.ElapsedMS, want.ElapsedMS = 0, 0
	if !reflect.DeepEqual(&got, want) {
		t.Errorf("analytic batched member diverged from single")
	}
	if !errors.Is(errs[1], ErrUnknownNetwork) {
		t.Errorf("member 1 error = %v, want ErrUnknownNetwork", errs[1])
	}
}
