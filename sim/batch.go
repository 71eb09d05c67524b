package sim

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/stats"
)

// Serving-side batch support: request identity keys for timelyd's
// coalescing layer (internal/batchq), and a group evaluation entry point
// that fuses functional requests differing only in their Monte-Carlo seed
// into one shared trial grid.

// Keys derives the request's two identity keys for the serving-side
// batching layer.
//
// The batch key names the request's batching equivalence class: backend,
// network identity (inline specs by their canonical spec hash, so
// differently-spelled but identical specs group together), every raw
// configuration field, and whether — but not to what value — the
// Monte-Carlo seed was set. Requests sharing a batch key may execute as
// one group evaluation (EvaluateBatch). The cache key extends the batch
// key with the seed value itself: it names the exact computation, and is
// what singleflight de-duplication and the result cache key on.
//
// Keys hashes the RAW request fields, not their resolved defaults: an
// explicitly-set field and an unset one are different classes, because
// backends reject options foreign to them only when explicitly set (an
// explicit bits on the functional backend is a 400; an unset one is not).
// The one exception is the sampler on the functional backend, which
// accepts "" and "v3" alike: it keys resolved (see samplerKey). Inline
// specs are compiled (and validated) here, so a handler can reject a
// malformed spec before admission; the same validation failures Evaluate
// would report are returned.
func (r *EvalRequest) Keys() (cacheKey, batchKey string, err error) {
	if r.Backend == "" {
		return "", "", fmt.Errorf("%w: request names no backend", ErrUnknownBackend)
	}
	if r.Spec == nil && r.Network == "" {
		return "", "", fmt.Errorf("%w: request names no network and carries no spec", ErrUnknownNetwork)
	}
	if r.Spec != nil && r.Network != "" && r.Network != r.Spec.Name {
		return "", "", fmt.Errorf("%w: request names network %q but the inline spec is %q",
			ErrInvalidSpec, r.Network, r.Spec.Name)
	}
	var b strings.Builder
	// Client-controlled free-form strings are %q-escaped so a crafted
	// network name or sampler spelling cannot forge another request's key.
	fmt.Fprintf(&b, "b=%q", r.Backend)
	if r.Spec != nil {
		n, cerr := r.Spec.Compile()
		if cerr != nil {
			return "", "", fmt.Errorf("%w: %w", ErrInvalidSpec, cerr)
		}
		fmt.Fprintf(&b, "|spec=%s/%q", n.SpecHash(), r.Spec.Name)
	} else {
		fmt.Fprintf(&b, "|net=%q", r.Network)
	}
	fmt.Fprintf(&b, "|bits=%d|chips=%d|sub=%d|gamma=%d", r.Bits, r.Chips, r.SubChips, r.Gamma)
	if r.NoisePS != nil {
		fmt.Fprintf(&b, "|noise=%v", *r.NoisePS)
	} else {
		b.WriteString("|noise=-")
	}
	if r.FaultRate != nil {
		fmt.Fprintf(&b, "|fault=%v", *r.FaultRate)
	} else {
		b.WriteString("|fault=-")
	}
	fmt.Fprintf(&b, "|trials=%d|sampler=%q|images=%d", r.Trials, r.samplerKey(), r.Images)
	if r.Seed != nil {
		b.WriteString("|seed=set")
	} else {
		b.WriteString("|seed=-")
	}
	batchKey = b.String()
	if r.Seed != nil {
		cacheKey = batchKey + "#" + strconv.FormatUint(*r.Seed, 10)
	} else {
		cacheKey = batchKey + "#-"
	}
	return cacheKey, batchKey, nil
}

// samplerKey is the sampler field's key spelling. The functional backend
// accepts "" and "v3" alike and both select the one stream contract, so
// both key as the resolved "v3": the two bodies share a cache entry and
// fuse into one trial grid. Every other spelling keys raw — an explicit
// sampler is a 400 on the other backends where an unset one is not, and
// an unparsable one must reach Evaluate to fail there.
func (r *EvalRequest) samplerKey() string {
	if r.Backend != "functional" {
		return r.Sampler
	}
	v, err := stats.ParseSamplerVersion(r.Sampler)
	if err != nil {
		return r.Sampler
	}
	return v.Resolve().String()
}

// RegistryFree reports whether the request's answer cannot depend on the
// network registry of the process that evaluates it: an inline spec, a
// Table III zoo name on an analytic or timing backend, or "mlp"/"cnn" on
// the functional backend. Every replica computes the same bytes for such a
// request (elapsed_ms aside), so one replica may keep and replay another's
// answer under the request's cache key. A registered name is not
// registry-free: its key names the raw name, which two processes may bind
// to different specs.
func (r *EvalRequest) RegistryFree() bool {
	if r.Spec != nil {
		return true
	}
	switch r.Backend {
	case "timely", "prime", "isaac", "timing":
		return model.IsBenchmark(r.Network)
	case "functional":
		return r.Network == "mlp" || r.Network == "cnn"
	}
	return false
}

// EvaluateBatch evaluates a group of requests together, returning one
// result and one error per request in order. Callers group requests by
// their shared batch key (Keys); functional "mlp"/"cnn" groups — whose
// members differ only in their Monte-Carlo seed — fuse into ONE shared
// trial grid (experiments.AnalogMLPAccuracyBatch / AnalogCNNAccuracyBatch)
// whose per-trial work fans images through the matrix–matrix ForwardBatch
// waves. Every other shape (analytic backends, single-member groups, or a
// defensively-detected heterogeneous group) evaluates member by member.
// Per-request results are byte-identical to Evaluate in every case —
// except ElapsedMS, which reports the shared group's wall clock for fused
// members.
func EvaluateBatch(ctx context.Context, reqs []*EvalRequest) ([]*EvalResult, []error) {
	vals := make([]*EvalResult, len(reqs))
	errs := make([]error, len(reqs))
	if len(reqs) == 0 {
		return vals, errs
	}
	if fused, ok := fuseFunctional(ctx, reqs, vals, errs); ok {
		return fused, errs
	}
	for i, r := range reqs {
		vals[i], errs[i] = Evaluate(ctx, r)
	}
	return vals, errs
}

// fuseFunctional attempts the fused functional path. It reports false when
// the group does not qualify (wrong backend or network, single member,
// heterogeneous, or an error path the per-request loop reports better).
func fuseFunctional(ctx context.Context, reqs []*EvalRequest, vals []*EvalResult, errs []error) ([]*EvalResult, bool) {
	if len(reqs) < 2 || reqs[0].Backend != "functional" || reqs[0].Spec != nil {
		return nil, false
	}
	network := reqs[0].Network
	if network != "mlp" && network != "cnn" {
		return nil, false
	}
	_, key0, err := reqs[0].Keys()
	if err != nil {
		return nil, false
	}
	for _, r := range reqs[1:] {
		_, key, err := r.Keys()
		if err != nil || key != key0 {
			return nil, false
		}
	}
	fs := make([]*functional, len(reqs))
	for i, r := range reqs {
		b, err := Open(r.Backend, r.options()...)
		if err != nil {
			return nil, false
		}
		f, ok := b.(*functional)
		if !ok {
			return nil, false
		}
		fs[i] = f
	}
	cfg := &fs[0].cfg
	// The same applicability rejections Evaluate performs; on violation the
	// per-request loop reproduces the exact error for every member.
	if network == "mlp" && cfg.IsSet(optFaultRate) {
		return nil, false
	}
	if network == "cnn" && cfg.IsSet(optNoise) {
		return nil, false
	}
	if err := ctx.Err(); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return vals, true
	}
	start := time.Now()
	seeds := make([]uint64, len(fs))
	switch network {
	case "mlp":
		for i, f := range fs {
			seeds[i] = f.seed(defaultMLPSeed)
		}
		rs, err := experiments.AnalogMLPAccuracyBatch(ctx, seeds, cfg.Trials, cfg.NoisePS)
		if err != nil {
			for i := range errs {
				errs[i] = err
			}
			return vals, true
		}
		for i, r := range rs {
			vals[i] = &EvalResult{Backend: "functional", Network: network,
				Accuracy: mlpAccuracyStats(r), ElapsedMS: elapsedMS(start)}
		}
	case "cnn":
		for i, f := range fs {
			seeds[i] = f.seed(defaultCNNSeed)
		}
		rs, err := experiments.AnalogCNNAccuracyBatch(ctx, seeds, cfg.Trials, cfg.FaultRate)
		if err != nil {
			for i := range errs {
				errs[i] = err
			}
			return vals, true
		}
		for i, r := range rs {
			vals[i] = &EvalResult{Backend: "functional", Network: network,
				Accuracy: cnnAccuracyStats(r), ElapsedMS: elapsedMS(start)}
		}
	}
	return vals, true
}
