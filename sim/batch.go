package sim

import (
	"context"
	"fmt"
	"strconv"
	"strings"
)

// Serving-side batch support: request identity keys for timelyd's
// coalescing layer (internal/batchq), and a group evaluation entry point
// that fuses functional requests differing only in their Monte-Carlo seed
// into one shared trial grid.

// Keys derives the request's two identity keys for the serving-side
// batching layer. Both hash the resolved request, not its raw fields: the
// backend, the network identity (a name as written, an inline spec by its
// canonical spec hash and name) and every configuration value with its
// default filled in. So two spellings of one evaluation — "bits": 8 and an
// omitted bits, the workload's default seed and an omitted one — share
// both keys.
//
// The batch key names the request's batching equivalence class: all of
// the above but the Monte-Carlo seed. Requests sharing a batch key may
// execute as one group evaluation (EvaluateBatch). The cache key extends
// the batch key with the seed: it names the exact computation, and is what
// singleflight de-duplication and the result cache key on. No component
// names a Monte-Carlo stream contract: every functional evaluation draws
// from the one keyed Philox contract ("v3", echoed in the result).
//
// Keys runs the validation step Evaluate runs and compiles inline specs,
// so a handler can reject an invalid request before admission with the
// error Evaluate would report. It never consults a network registry: a
// name keys as written, so a replica resolves a registered name into its
// spec (Registry.Resolve) before keying the request.
func (r *EvalRequest) Keys() (cacheKey, batchKey string, err error) {
	_, cacheKey, batchKey, err = r.keys()
	return cacheKey, batchKey, err
}

// keys resolves the request and derives its identity keys (see Keys).
func (r *EvalRequest) keys() (c config, cacheKey, batchKey string, err error) {
	if c, err = r.resolve(); err != nil {
		return config{}, "", "", err
	}
	var b strings.Builder
	// Client-controlled free-form strings are %q-escaped so a crafted
	// network name cannot forge another request's key.
	fmt.Fprintf(&b, "b=%q", c.backend)
	if r.Spec != nil {
		n, cerr := r.Spec.Compile()
		if cerr != nil {
			return config{}, "", "", fmt.Errorf("%w: %w", ErrInvalidSpec, cerr)
		}
		fmt.Fprintf(&b, "|spec=%s/%q", n.SpecHash(), r.Spec.Name)
	} else {
		fmt.Fprintf(&b, "|net=%q", r.Network)
	}
	fmt.Fprintf(&b, "|bits=%d|chips=%d|sub=%d|gamma=%d|noise=%v|fault=%v|trials=%d|images=%d",
		c.bits, c.chips, c.subChips, c.gamma, c.noisePS, c.faultRate, c.trials, c.images)
	batchKey = b.String()
	return c, batchKey + "#" + strconv.FormatUint(c.seed, 10), batchKey, nil
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
// the group does not qualify (another backend, a single member, or
// heterogeneous batch keys); a qualifying group runs as one evaluateSeeds
// call, and a failure of that call is every member's error.
func fuseFunctional(ctx context.Context, reqs []*EvalRequest, vals []*EvalResult, errs []error) ([]*EvalResult, bool) {
	if len(reqs) < 2 || reqs[0].Backend != "functional" {
		return nil, false
	}
	var c config
	var key0 string
	seeds := make([]uint64, len(reqs))
	for i, r := range reqs {
		rc, _, key, err := r.keys()
		if err != nil || i > 0 && key != key0 {
			return nil, false
		}
		// Equal batch keys resolve alike but for the seed.
		c, key0, seeds[i] = rc, key, rc.seed
	}
	rs, err := evaluateSeeds(ctx, c, reqs[0].Network, seeds)
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return vals, true
	}
	return rs, true
}
