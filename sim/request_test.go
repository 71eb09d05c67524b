package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func f64(v float64) *float64 { return &v }
func u64(v uint64) *uint64   { return &v }

// emptySpec fails compilation: a network needs at least one layer.
func emptySpec(name string) *NetworkSpec {
	return &NetworkSpec{Name: name, Input: NetworkDims{C: 1, H: 4, W: 4}}
}

// invalidRequests pins every validation rule of an evaluation request —
// one row per rule, plus one row per precedence pair — with the exact
// error text and its sentinel. Rows marked trace attach a trace sink.
var invalidRequests = []struct {
	name     string
	req      EvalRequest
	trace    bool
	sentinel error
	err      string
}{
	// The request-shape prelude.
	{"no backend", EvalRequest{Network: "VGG-D"}, false, ErrUnknownBackend,
		`sim: unknown backend: request names no backend`},
	{"no network", EvalRequest{Backend: "timely"}, false, ErrUnknownNetwork,
		`sim: unknown network: request names no network and carries no spec`},
	{"no network on functional", EvalRequest{Backend: "functional", Trials: 2}, false, ErrUnknownNetwork,
		`sim: unknown network: request names no network and carries no spec`},
	{"spec name mismatch", EvalRequest{Backend: "timely", Network: "other", Spec: tinySpec("tiny-pin")}, false, ErrInvalidSpec,
		`sim: invalid network spec: request names network "other" but the inline spec is "tiny-pin"`},
	{"unknown backend", EvalRequest{Backend: "unicorn", Network: "VGG-D"}, false, ErrUnknownBackend,
		`sim: unknown backend: "unicorn" (have [functional isaac prime timely timing])`},

	// Range checks.
	{"bits 7", EvalRequest{Backend: "timely", Network: "VGG-D", Bits: 7}, false, ErrInvalidOption,
		`sim: invalid option: bits must be 8 or 16, got 7`},
	{"bits -8", EvalRequest{Backend: "timely", Network: "VGG-D", Bits: -8}, false, ErrInvalidOption,
		`sim: invalid option: bits must be 8 or 16, got -8`},
	{"bits 32 on timing", EvalRequest{Backend: "timing", Network: "VGG-D", Bits: 32}, false, ErrInvalidOption,
		`sim: invalid option: bits must be 8 or 16, got 32`},
	{"chips -1", EvalRequest{Backend: "prime", Network: "VGG-D", Chips: -1}, false, ErrInvalidOption,
		`sim: invalid option: chips must be in [1,4096], got -1`},
	{"chips 4097", EvalRequest{Backend: "isaac", Network: "VGG-D", Chips: 4097}, false, ErrInvalidOption,
		`sim: invalid option: chips must be in [1,4096], got 4097`},
	{"chips 5000 on timing", EvalRequest{Backend: "timing", Network: "VGG-D", Chips: 5000}, false, ErrInvalidOption,
		`sim: invalid option: chips must be in [1,4096], got 5000`},
	{"sub_chips -1", EvalRequest{Backend: "timely", Network: "VGG-D", SubChips: -1}, false, ErrInvalidOption,
		`sim: invalid option: sub-chips must be in [1,4096], got -1`},
	{"sub_chips 4097", EvalRequest{Backend: "timing", Network: "VGG-D", SubChips: 4097}, false, ErrInvalidOption,
		`sim: invalid option: sub-chips must be in [1,4096], got 4097`},
	{"gamma -1", EvalRequest{Backend: "timely", Network: "VGG-D", Gamma: -1}, false, ErrInvalidOption,
		`sim: invalid option: gamma must be in [1,256], got -1`},
	{"gamma 257", EvalRequest{Backend: "timing", Network: "VGG-D", Gamma: 257}, false, ErrInvalidOption,
		`sim: invalid option: gamma must be in [1,256], got 257`},
	{"noise -1", EvalRequest{Backend: "functional", Network: "mlp", NoisePS: f64(-1)}, false, ErrInvalidOption,
		`sim: invalid option: noise epsilon must be a finite value >= 0 ps, got -1`},
	{"noise NaN", EvalRequest{Backend: "functional", Network: "mlp", NoisePS: f64(math.NaN())}, false, ErrInvalidOption,
		`sim: invalid option: noise epsilon must be a finite value >= 0 ps, got NaN`},
	{"noise +Inf", EvalRequest{Backend: "functional", Network: "mlp", NoisePS: f64(math.Inf(1))}, false, ErrInvalidOption,
		`sim: invalid option: noise epsilon must be a finite value >= 0 ps, got +Inf`},
	{"fault 1.5", EvalRequest{Backend: "functional", Network: "cnn", FaultRate: f64(1.5)}, false, ErrInvalidOption,
		`sim: invalid option: fault rate must be in [0,1], got 1.5`},
	{"fault -0.1", EvalRequest{Backend: "functional", Network: "cnn", FaultRate: f64(-0.1)}, false, ErrInvalidOption,
		`sim: invalid option: fault rate must be in [0,1], got -0.1`},
	{"fault NaN", EvalRequest{Backend: "functional", Network: "cnn", FaultRate: f64(math.NaN())}, false, ErrInvalidOption,
		`sim: invalid option: fault rate must be in [0,1], got NaN`},
	{"trials -1", EvalRequest{Backend: "functional", Network: "mlp", Trials: -1}, false, ErrInvalidOption,
		`sim: invalid option: trials must be in [1,1000], got -1`},
	{"trials 1001", EvalRequest{Backend: "functional", Network: "cnn", Trials: 1001}, false, ErrInvalidOption,
		`sim: invalid option: trials must be in [1,1000], got 1001`},
	{"images -1", EvalRequest{Backend: "timing", Network: "VGG-D", Images: -1}, false, ErrInvalidOption,
		`sim: invalid option: images must be in [1,4096], got -1`},
	{"images 4097", EvalRequest{Backend: "timing", Network: "VGG-D", Images: 4097}, false, ErrInvalidOption,
		`sim: invalid option: images must be in [1,4096], got 4097`},

	// Fields foreign to the backend.
	{"timely noise_ps", EvalRequest{Backend: "timely", Network: "VGG-D", NoisePS: f64(10)}, false, ErrInvalidOption,
		`sim: invalid option: noise_ps does not apply to the "timely" backend`},
	{"timely fault_rate", EvalRequest{Backend: "timely", Network: "VGG-D", FaultRate: f64(0.1)}, false, ErrInvalidOption,
		`sim: invalid option: fault_rate does not apply to the "timely" backend`},
	{"timely seed", EvalRequest{Backend: "timely", Network: "VGG-D", Seed: u64(1)}, false, ErrInvalidOption,
		`sim: invalid option: seed does not apply to the "timely" backend`},
	{"timely trials", EvalRequest{Backend: "timely", Network: "VGG-D", Trials: 3}, false, ErrInvalidOption,
		`sim: invalid option: trials does not apply to the "timely" backend`},
	{"timely images", EvalRequest{Backend: "timely", Network: "VGG-D", Images: 4}, false, ErrInvalidOption,
		`sim: invalid option: images does not apply to the "timely" backend`},
	{"timely trace", EvalRequest{Backend: "timely", Network: "VGG-D"}, true, ErrInvalidOption,
		`sim: invalid option: trace does not apply to the "timely" backend`},
	{"prime bits", EvalRequest{Backend: "prime", Network: "VGG-D", Bits: 16}, false, ErrInvalidOption,
		`sim: invalid option: bits does not apply to the "prime" backend`},
	{"prime sub_chips", EvalRequest{Backend: "prime", Network: "VGG-D", SubChips: 10}, false, ErrInvalidOption,
		`sim: invalid option: sub_chips does not apply to the "prime" backend`},
	{"prime gamma", EvalRequest{Backend: "prime", Network: "VGG-D", Gamma: 4}, false, ErrInvalidOption,
		`sim: invalid option: gamma does not apply to the "prime" backend`},
	{"prime noise_ps", EvalRequest{Backend: "prime", Network: "VGG-D", NoisePS: f64(0)}, false, ErrInvalidOption,
		`sim: invalid option: noise_ps does not apply to the "prime" backend`},
	{"prime fault_rate", EvalRequest{Backend: "prime", Network: "VGG-D", FaultRate: f64(0)}, false, ErrInvalidOption,
		`sim: invalid option: fault_rate does not apply to the "prime" backend`},
	{"prime seed", EvalRequest{Backend: "prime", Network: "VGG-D", Seed: u64(0)}, false, ErrInvalidOption,
		`sim: invalid option: seed does not apply to the "prime" backend`},
	{"prime trials", EvalRequest{Backend: "prime", Network: "VGG-D", Trials: 1}, false, ErrInvalidOption,
		`sim: invalid option: trials does not apply to the "prime" backend`},
	{"prime images", EvalRequest{Backend: "prime", Network: "VGG-D", Images: 1}, false, ErrInvalidOption,
		`sim: invalid option: images does not apply to the "prime" backend`},
	{"prime trace", EvalRequest{Backend: "prime", Network: "VGG-D"}, true, ErrInvalidOption,
		`sim: invalid option: trace does not apply to the "prime" backend`},
	{"isaac bits", EvalRequest{Backend: "isaac", Network: "VGG-D", Bits: 8}, false, ErrInvalidOption,
		`sim: invalid option: bits does not apply to the "isaac" backend`},
	{"isaac sub_chips", EvalRequest{Backend: "isaac", Network: "VGG-D", SubChips: 10}, false, ErrInvalidOption,
		`sim: invalid option: sub_chips does not apply to the "isaac" backend`},
	{"isaac gamma", EvalRequest{Backend: "isaac", Network: "VGG-D", Gamma: 8}, false, ErrInvalidOption,
		`sim: invalid option: gamma does not apply to the "isaac" backend`},
	{"isaac noise_ps", EvalRequest{Backend: "isaac", Network: "VGG-D", NoisePS: f64(10)}, false, ErrInvalidOption,
		`sim: invalid option: noise_ps does not apply to the "isaac" backend`},
	{"isaac fault_rate", EvalRequest{Backend: "isaac", Network: "VGG-D", FaultRate: f64(0.5)}, false, ErrInvalidOption,
		`sim: invalid option: fault_rate does not apply to the "isaac" backend`},
	{"isaac seed", EvalRequest{Backend: "isaac", Network: "VGG-D", Seed: u64(9)}, false, ErrInvalidOption,
		`sim: invalid option: seed does not apply to the "isaac" backend`},
	{"isaac trials", EvalRequest{Backend: "isaac", Network: "VGG-D", Trials: 5}, false, ErrInvalidOption,
		`sim: invalid option: trials does not apply to the "isaac" backend`},
	{"isaac images", EvalRequest{Backend: "isaac", Network: "VGG-D", Images: 8}, false, ErrInvalidOption,
		`sim: invalid option: images does not apply to the "isaac" backend`},
	{"isaac trace", EvalRequest{Backend: "isaac", Network: "VGG-D"}, true, ErrInvalidOption,
		`sim: invalid option: trace does not apply to the "isaac" backend`},
	{"functional bits", EvalRequest{Backend: "functional", Network: "mlp", Bits: 8}, false, ErrInvalidOption,
		`sim: invalid option: bits does not apply to the "functional" backend`},
	{"functional chips", EvalRequest{Backend: "functional", Network: "mlp", Chips: 2}, false, ErrInvalidOption,
		`sim: invalid option: chips does not apply to the "functional" backend`},
	{"functional sub_chips", EvalRequest{Backend: "functional", Network: "cnn", SubChips: 10}, false, ErrInvalidOption,
		`sim: invalid option: sub_chips does not apply to the "functional" backend`},
	{"functional gamma", EvalRequest{Backend: "functional", Network: "cnn", Gamma: 4}, false, ErrInvalidOption,
		`sim: invalid option: gamma does not apply to the "functional" backend`},
	{"functional images", EvalRequest{Backend: "functional", Network: "mlp", Images: 4}, false, ErrInvalidOption,
		`sim: invalid option: images does not apply to the "functional" backend`},
	{"functional trace", EvalRequest{Backend: "functional", Network: "mlp"}, true, ErrInvalidOption,
		`sim: invalid option: trace does not apply to the "functional" backend`},
	{"timing noise_ps", EvalRequest{Backend: "timing", Network: "VGG-D", NoisePS: f64(10)}, false, ErrInvalidOption,
		`sim: invalid option: noise_ps does not apply to the "timing" backend`},
	{"timing fault_rate", EvalRequest{Backend: "timing", Network: "VGG-D", FaultRate: f64(0.01)}, false, ErrInvalidOption,
		`sim: invalid option: fault_rate does not apply to the "timing" backend`},
	{"timing seed", EvalRequest{Backend: "timing", Network: "VGG-D", Seed: u64(7)}, false, ErrInvalidOption,
		`sim: invalid option: seed does not apply to the "timing" backend`},
	{"timing trials", EvalRequest{Backend: "timing", Network: "VGG-D", Trials: 3}, false, ErrInvalidOption,
		`sim: invalid option: trials does not apply to the "timing" backend`},

	// The functional workload rules.
	{"spec on functional", EvalRequest{Backend: "functional", Spec: tinySpec("tiny-pin")}, false, ErrInvalidOption,
		`sim: invalid option: the "functional" backend does not evaluate custom network specs`},
	{"fault_rate on mlp", EvalRequest{Backend: "functional", Network: "mlp", FaultRate: f64(0.01)}, false, ErrInvalidOption,
		`sim: invalid option: fault injection applies to the "cnn" workload, not "mlp"`},
	{"noise_ps on cnn", EvalRequest{Backend: "functional", Network: "cnn", NoisePS: f64(10)}, false, ErrInvalidOption,
		`sim: invalid option: timing noise applies to the "mlp" workload, not "cnn"`},

	// Network resolution at evaluation time.
	{"timely unknown network", EvalRequest{Backend: "timely", Network: "NOPE-9"}, false, ErrUnknownNetwork,
		`sim: unknown network: "NOPE-9" (backend "timely" evaluates the Table III suite and registered custom networks)`},
	{"prime unknown network", EvalRequest{Backend: "prime", Network: "NOPE-9"}, false, ErrUnknownNetwork,
		`sim: unknown network: "NOPE-9" (backend "prime" evaluates the Table III suite and registered custom networks)`},
	{"isaac unknown network", EvalRequest{Backend: "isaac", Network: "mlp"}, false, ErrUnknownNetwork,
		`sim: unknown network: "mlp" (backend "isaac" evaluates the Table III suite and registered custom networks)`},
	{"timing unknown network", EvalRequest{Backend: "timing", Network: "NOPE-9"}, false, ErrUnknownNetwork,
		`sim: unknown network: "NOPE-9" (backend "timing" evaluates the Table III suite and registered custom networks)`},
	{"functional unknown workload", EvalRequest{Backend: "functional", Network: "VGG-D"}, false, ErrUnknownNetwork,
		`sim: unknown network: "VGG-D" (the functional backend runs "mlp" or "cnn")`},
	{"invalid spec", EvalRequest{Backend: "timely", Spec: emptySpec("empty")}, false, ErrInvalidSpec,
		`sim: invalid network spec: model: spec "empty": layers: network has no layers`},
	{"invalid spec on timing", EvalRequest{Backend: "timing", Spec: emptySpec("empty")}, false, ErrInvalidSpec,
		`sim: invalid network spec: model: spec "empty": layers: network has no layers`},

	// Precedence pairs: the first failing rule in the order above wins.
	{"no network before unknown backend", EvalRequest{Backend: "unicorn"}, false, ErrUnknownNetwork,
		`sim: unknown network: request names no network and carries no spec`},
	{"spec mismatch before unknown backend", EvalRequest{Backend: "unicorn", Network: "y", Spec: tinySpec("x")}, false, ErrInvalidSpec,
		`sim: invalid network spec: request names network "y" but the inline spec is "x"`},
	{"unknown backend before range", EvalRequest{Backend: "unicorn", Network: "VGG-D", Bits: 7}, false, ErrUnknownBackend,
		`sim: unknown backend: "unicorn" (have [functional isaac prime timely timing])`},
	{"timely range before foreign", EvalRequest{Backend: "timely", Network: "VGG-D", NoisePS: f64(10), Bits: 7}, false, ErrInvalidOption,
		`sim: invalid option: bits must be 8 or 16, got 7`},
	{"prime range before foreign", EvalRequest{Backend: "prime", Network: "VGG-D", Bits: 16, Chips: -1}, false, ErrInvalidOption,
		`sim: invalid option: chips must be in [1,4096], got -1`},
	{"isaac range before foreign", EvalRequest{Backend: "isaac", Network: "VGG-D", Trials: 3, Gamma: 300}, false, ErrInvalidOption,
		`sim: invalid option: gamma must be in [1,256], got 300`},
	{"functional range before foreign", EvalRequest{Backend: "functional", Network: "mlp", Bits: 8, Trials: 1001}, false, ErrInvalidOption,
		`sim: invalid option: trials must be in [1,1000], got 1001`},
	{"timing range before foreign", EvalRequest{Backend: "timing", Network: "VGG-D", Seed: u64(1), Images: 5000}, false, ErrInvalidOption,
		`sim: invalid option: images must be in [1,4096], got 5000`},
	{"range before trace", EvalRequest{Backend: "timely", Network: "VGG-D", Chips: -2}, true, ErrInvalidOption,
		`sim: invalid option: chips must be in [1,4096], got -2`},
	{"prime first foreign in field order", EvalRequest{Backend: "prime", Network: "VGG-D", Seed: u64(1), Bits: 16}, false, ErrInvalidOption,
		`sim: invalid option: bits does not apply to the "prime" backend`},
	{"functional first foreign in field order", EvalRequest{Backend: "functional", Network: "mlp", Images: 4, Chips: 2}, false, ErrInvalidOption,
		`sim: invalid option: chips does not apply to the "functional" backend`},
	{"foreign before trace", EvalRequest{Backend: "timely", Network: "VGG-D", Images: 4}, true, ErrInvalidOption,
		`sim: invalid option: images does not apply to the "timely" backend`},
	{"range before spec on functional", EvalRequest{Backend: "functional", Spec: tinySpec("tiny-pin"), Trials: -1}, false, ErrInvalidOption,
		`sim: invalid option: trials must be in [1,1000], got -1`},
	{"foreign before spec on functional", EvalRequest{Backend: "functional", Spec: tinySpec("tiny-pin"), Bits: 8}, false, ErrInvalidOption,
		`sim: invalid option: bits does not apply to the "functional" backend`},
	{"spec on functional before spec compile", EvalRequest{Backend: "functional", Spec: emptySpec("empty")}, false, ErrInvalidOption,
		`sim: invalid option: the "functional" backend does not evaluate custom network specs`},
	{"foreign before fault_rate on mlp", EvalRequest{Backend: "functional", Network: "mlp", FaultRate: f64(0.01), Chips: 2}, false, ErrInvalidOption,
		`sim: invalid option: chips does not apply to the "functional" backend`},
	{"range before fault_rate on mlp", EvalRequest{Backend: "functional", Network: "mlp", FaultRate: f64(2)}, false, ErrInvalidOption,
		`sim: invalid option: fault rate must be in [0,1], got 2`},
	{"trials range beside fault_rate on mlp", EvalRequest{Backend: "functional", Network: "mlp", FaultRate: f64(0.01), Trials: -1}, false, ErrInvalidOption,
		`sim: invalid option: trials must be in [1,1000], got -1`},
	{"foreign before noise_ps on cnn", EvalRequest{Backend: "functional", Network: "cnn", NoisePS: f64(10), Images: 4}, false, ErrInvalidOption,
		`sim: invalid option: images does not apply to the "functional" backend`},
	{"unknown workload beside fault_rate", EvalRequest{Backend: "functional", Network: "transformer", FaultRate: f64(0.01)}, false, ErrUnknownNetwork,
		`sim: unknown network: "transformer" (the functional backend runs "mlp" or "cnn")`},
	{"range before invalid spec", EvalRequest{Backend: "timely", Spec: emptySpec("empty"), Bits: 7}, false, ErrInvalidOption,
		`sim: invalid option: bits must be 8 or 16, got 7`},
	{"foreign before invalid spec", EvalRequest{Backend: "prime", Spec: emptySpec("empty"), Gamma: 4}, false, ErrInvalidOption,
		`sim: invalid option: gamma does not apply to the "prime" backend`},
	{"foreign before unknown network", EvalRequest{Backend: "timing", Network: "NOPE-9", Trials: 2}, false, ErrInvalidOption,
		`sim: invalid option: trials does not apply to the "timing" backend`},
	{"range before unknown network", EvalRequest{Backend: "isaac", Network: "NOPE-9", Chips: -3}, false, ErrInvalidOption,
		`sim: invalid option: chips must be in [1,4096], got -3`},
}

func TestInvalidRequestErrors(t *testing.T) {
	for _, tc := range invalidRequests {
		res, err := evaluatePin(tc.req, tc.trace)
		if err == nil {
			t.Errorf("%s: accepted (%+v)", tc.name, res)
			continue
		}
		if err.Error() != tc.err {
			t.Errorf("%s: err = %q\n want %q", tc.name, err, tc.err)
		}
		if !errors.Is(err, tc.sentinel) {
			t.Errorf("%s: err = %v, not %v", tc.name, err, tc.sentinel)
		}
	}
}

// evaluatePin evaluates a copy of req, with a trace sink attached when
// trace is set.
func evaluatePin(req EvalRequest, trace bool) (*EvalResult, error) {
	if trace {
		req.Trace = func(TraceSpan) {}
	}
	return Evaluate(context.Background(), &req)
}

// validKeys pins the exact identity keys of representative valid
// requests: they route the cluster ring and key the caches, and the
// benchmark's trace replays them.
var validKeys = []struct {
	req             EvalRequest
	cacheKey, batch string
}{
	{EvalRequest{Backend: "timely", Network: "VGG-D"},
		`b="timely"|net="VGG-D"|bits=8|chips=1|sub=0|gamma=0|noise=10|fault=0|trials=5|images=0#2020`,
		`b="timely"|net="VGG-D"|bits=8|chips=1|sub=0|gamma=0|noise=10|fault=0|trials=5|images=0`},
	{EvalRequest{Backend: "timely", Network: "VGG-D", Bits: 16, Chips: 4, SubChips: 53, Gamma: 4},
		`b="timely"|net="VGG-D"|bits=16|chips=4|sub=53|gamma=4|noise=10|fault=0|trials=5|images=0#2020`,
		`b="timely"|net="VGG-D"|bits=16|chips=4|sub=53|gamma=4|noise=10|fault=0|trials=5|images=0`},
	{EvalRequest{Backend: "prime", Network: "CNN-1", Chips: 2},
		`b="prime"|net="CNN-1"|bits=8|chips=2|sub=0|gamma=0|noise=10|fault=0|trials=5|images=0#2020`,
		`b="prime"|net="CNN-1"|bits=8|chips=2|sub=0|gamma=0|noise=10|fault=0|trials=5|images=0`},
	{EvalRequest{Backend: "isaac", Network: "MLP-L"},
		`b="isaac"|net="MLP-L"|bits=8|chips=1|sub=0|gamma=0|noise=10|fault=0|trials=5|images=0#2020`,
		`b="isaac"|net="MLP-L"|bits=8|chips=1|sub=0|gamma=0|noise=10|fault=0|trials=5|images=0`},
	{EvalRequest{Backend: "timing", Network: "SqueezeNet", Images: 8, Gamma: 4},
		`b="timing"|net="SqueezeNet"|bits=8|chips=1|sub=0|gamma=4|noise=10|fault=0|trials=5|images=8#2020`,
		`b="timing"|net="SqueezeNet"|bits=8|chips=1|sub=0|gamma=4|noise=10|fault=0|trials=5|images=8`},
	{EvalRequest{Backend: "functional", Network: "mlp"},
		`b="functional"|net="mlp"|bits=8|chips=1|sub=0|gamma=0|noise=10|fault=0|trials=5|images=0#2020`,
		`b="functional"|net="mlp"|bits=8|chips=1|sub=0|gamma=0|noise=10|fault=0|trials=5|images=0`},
	{EvalRequest{Backend: "functional", Network: "mlp", NoisePS: f64(0), Seed: u64(7), Trials: 3},
		`b="functional"|net="mlp"|bits=8|chips=1|sub=0|gamma=0|noise=0|fault=0|trials=3|images=0#7`,
		`b="functional"|net="mlp"|bits=8|chips=1|sub=0|gamma=0|noise=0|fault=0|trials=3|images=0`},
	{EvalRequest{Backend: "functional", Network: "mlp", NoisePS: f64(12.5), Seed: u64(0)},
		`b="functional"|net="mlp"|bits=8|chips=1|sub=0|gamma=0|noise=12.5|fault=0|trials=5|images=0#0`,
		`b="functional"|net="mlp"|bits=8|chips=1|sub=0|gamma=0|noise=12.5|fault=0|trials=5|images=0`},
	{EvalRequest{Backend: "functional", Network: "cnn", FaultRate: f64(0.01), Seed: u64(18446744073709551615)},
		`b="functional"|net="cnn"|bits=8|chips=1|sub=0|gamma=0|noise=10|fault=0.01|trials=5|images=0#18446744073709551615`,
		`b="functional"|net="cnn"|bits=8|chips=1|sub=0|gamma=0|noise=10|fault=0.01|trials=5|images=0`},
	{EvalRequest{Backend: "timely", Spec: tinySpec("tiny-pin")},
		`b="timely"|spec=dc6bed940e2495bfc5f0944a63959e08eabf09ab064e0d6eb4a204c324f81027/"tiny-pin"|bits=8|chips=1|sub=0|gamma=0|noise=10|fault=0|trials=5|images=0#2020`,
		`b="timely"|spec=dc6bed940e2495bfc5f0944a63959e08eabf09ab064e0d6eb4a204c324f81027/"tiny-pin"|bits=8|chips=1|sub=0|gamma=0|noise=10|fault=0|trials=5|images=0`},
	{EvalRequest{Backend: "timing", Network: "tiny-pin", Spec: tinySpec("tiny-pin"), Chips: 2},
		`b="timing"|spec=dc6bed940e2495bfc5f0944a63959e08eabf09ab064e0d6eb4a204c324f81027/"tiny-pin"|bits=8|chips=2|sub=0|gamma=0|noise=10|fault=0|trials=5|images=0#2020`,
		`b="timing"|spec=dc6bed940e2495bfc5f0944a63959e08eabf09ab064e0d6eb4a204c324f81027/"tiny-pin"|bits=8|chips=2|sub=0|gamma=0|noise=10|fault=0|trials=5|images=0`},
	// A name no registry holds still keys: a name is resolved before it is
	// keyed (Registry.Resolve), never in Keys.
	{EvalRequest{Backend: "isaac", Network: "never-registered"},
		`b="isaac"|net="never-registered"|bits=8|chips=1|sub=0|gamma=0|noise=10|fault=0|trials=5|images=0#2020`,
		`b="isaac"|net="never-registered"|bits=8|chips=1|sub=0|gamma=0|noise=10|fault=0|trials=5|images=0`},
	{EvalRequest{Backend: "timely", Network: `a"|net=b`},
		`b="timely"|net="a\"|net=b"|bits=8|chips=1|sub=0|gamma=0|noise=10|fault=0|trials=5|images=0#2020`,
		`b="timely"|net="a\"|net=b"|bits=8|chips=1|sub=0|gamma=0|noise=10|fault=0|trials=5|images=0`},
}

func TestValidRequestKeys(t *testing.T) {
	for _, tc := range validKeys {
		ck, bk, err := tc.req.Keys()
		if err != nil {
			t.Errorf("%+v: %v", tc.req, err)
			continue
		}
		if ck != tc.cacheKey {
			t.Errorf("cache key = %s\n want %s", ck, tc.cacheKey)
		}
		if bk != tc.batch {
			t.Errorf("batch key = %s\n want %s", bk, tc.batch)
		}
	}
}

// TestKeysRejectsWhatEvaluateRejects: Keys runs Evaluate's validation
// step, so every invalid row fails Keys with Evaluate's exact error — all
// but the unknown names on the analytic and timing backends, which only a
// registry can resolve. The functional workloads are a fixed set. Resolving
// through an empty registry first, as a serving replica does, fails every
// row with Evaluate's exact error.
func TestKeysRejectsWhatEvaluateRejects(t *testing.T) {
	for _, tc := range invalidRequests {
		req := tc.req
		if tc.trace {
			req.Trace = func(TraceSpan) {}
		}
		entry := req
		err := new(Registry).Resolve(&entry)
		if err == nil {
			_, _, err = entry.Keys()
		}
		if err == nil || err.Error() != tc.err {
			t.Errorf("%s: Resolve then Keys err = %v\n want Evaluate's %q", tc.name, err, tc.err)
		}
		_, _, err = req.Keys()
		// An unknown-network error other than the prelude's comes from
		// the name lookup.
		lookup := errors.Is(tc.sentinel, ErrUnknownNetwork) && (tc.req.Network != "" || tc.req.Spec != nil) &&
			tc.req.Backend != "functional"
		switch {
		case lookup && err != nil:
			t.Errorf("%s: Keys consulted the network registry: %v", tc.name, err)
		case !lookup && err == nil:
			t.Errorf("%s: Keys accepted a request Evaluate rejects with %q", tc.name, tc.err)
		case !lookup && err.Error() != tc.err:
			t.Errorf("%s: Keys err = %q\n want Evaluate's %q", tc.name, err, tc.err)
		}
	}
}

// TestKeysConverse: changing any one result-affecting field of a valid
// request to another valid value changes its cache key, and changes its
// batch key too unless the field is the seed. Only Keys runs.
func TestKeysConverse(t *testing.T) {
	bases := []EvalRequest{
		{Backend: "timely", Network: "VGG-D", Chips: 2},
		{Backend: "prime", Network: "VGG-D"},
		{Backend: "isaac", Spec: tinySpec("tiny-pin")},
		{Backend: "functional", Network: "mlp", Seed: u64(7), Trials: 2},
		{Backend: "functional", Network: "cnn", FaultRate: f64(0.01)},
		{Backend: "timing", Network: "SqueezeNet", Images: 8},
	}
	other := tinySpec("tiny-pin")
	other.Layers[0].Filters = 8
	edits := []struct {
		field string
		apply func(*EvalRequest)
	}{
		{"backend timely", func(r *EvalRequest) { r.Backend = "timely" }},
		{"backend prime", func(r *EvalRequest) { r.Backend = "prime" }},
		{"backend isaac", func(r *EvalRequest) { r.Backend = "isaac" }},
		{"backend timing", func(r *EvalRequest) { r.Backend = "timing" }},
		{"backend functional", func(r *EvalRequest) { r.Backend = "functional" }},
		{"network", func(r *EvalRequest) { r.Network, r.Spec = "ResNet-50", nil }},
		{"network mlp", func(r *EvalRequest) { r.Network, r.Spec = "mlp", nil }},
		{"network cnn", func(r *EvalRequest) { r.Network, r.Spec = "cnn", nil }},
		{"spec", func(r *EvalRequest) { r.Network, r.Spec = "", other }},
		{"bits", func(r *EvalRequest) { r.Bits = 16 }},
		{"chips", func(r *EvalRequest) { r.Chips = 3 }},
		{"sub_chips", func(r *EvalRequest) { r.SubChips = 53 }},
		{"gamma", func(r *EvalRequest) { r.Gamma = 4 }},
		{"noise_ps", func(r *EvalRequest) { r.NoisePS = f64(20) }},
		{"noise_ps zero", func(r *EvalRequest) { r.NoisePS = f64(0) }},
		{"fault_rate", func(r *EvalRequest) { r.FaultRate = f64(0.02) }},
		{"fault_rate zero", func(r *EvalRequest) { r.FaultRate = f64(0) }},
		{"seed", func(r *EvalRequest) { r.Seed = u64(8) }},
		{"seed zero", func(r *EvalRequest) { r.Seed = u64(0) }},
		{"trials", func(r *EvalRequest) { r.Trials = 3 }},
		{"images", func(r *EvalRequest) { r.Images = 16 }},
	}
	tried := 0
	for _, base := range bases {
		ck0, bk0, err := base.Keys()
		if err != nil {
			t.Fatalf("base %+v: %v", base, err)
		}
		for _, e := range edits {
			req := base
			e.apply(&req)
			if reflect.DeepEqual(req, base) {
				continue // the edit leaves this base as it is
			}
			ck, bk, err := req.Keys()
			if err != nil {
				continue // the edit makes this base invalid
			}
			tried++
			if ck == ck0 {
				t.Errorf("%s on %+v: cache key unchanged: %s", e.field, base, ck)
			}
			if (bk == bk0) != strings.HasPrefix(e.field, "seed") {
				t.Errorf("%s on %+v: batch key %s, base %s", e.field, base, bk, bk0)
			}
		}
	}
	if tried < 40 {
		t.Errorf("only %d valid one-field edits tried", tried)
	}
}

// TestKeysEquivalence: spellings of one evaluation that differ only in
// writing out a default share both keys, since Keys hashes the resolved
// request. Only Keys runs.
func TestKeysEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b EvalRequest
	}{
		{"bits 8", EvalRequest{Backend: "timely", Network: "VGG-D"},
			EvalRequest{Backend: "timely", Network: "VGG-D", Bits: 8}},
		{"bits 8 on timing", EvalRequest{Backend: "timing", Network: "CNN-1", Images: 4},
			EvalRequest{Backend: "timing", Network: "CNN-1", Images: 4, Bits: 8}},
		{"chips 1", EvalRequest{Backend: "prime", Network: "VGG-D"},
			EvalRequest{Backend: "prime", Network: "VGG-D", Chips: 1}},
		{"chips 1 on a spec", EvalRequest{Backend: "isaac", Spec: tinySpec("tiny-pin")},
			EvalRequest{Backend: "isaac", Spec: tinySpec("tiny-pin"), Chips: 1}},
		{"bits 8 and chips 1", EvalRequest{Backend: "timely", Network: "VGG-D"},
			EvalRequest{Backend: "timely", Network: "VGG-D", Bits: 8, Chips: 1}},
		{"trials 5", EvalRequest{Backend: "functional", Network: "cnn"},
			EvalRequest{Backend: "functional", Network: "cnn", Trials: 5}},
		{"default noise_ps", EvalRequest{Backend: "functional", Network: "mlp"},
			EvalRequest{Backend: "functional", Network: "mlp", NoisePS: f64(10)}},
		{"seed 2020 on mlp", EvalRequest{Backend: "functional", Network: "mlp", Trials: 2},
			EvalRequest{Backend: "functional", Network: "mlp", Trials: 2, Seed: u64(2020)}},
		{"seed 5 on cnn", EvalRequest{Backend: "functional", Network: "cnn", FaultRate: f64(0.01)},
			EvalRequest{Backend: "functional", Network: "cnn", FaultRate: f64(0.01), Seed: u64(5)}},
		{"fault_rate 0 on cnn", EvalRequest{Backend: "functional", Network: "cnn"},
			EvalRequest{Backend: "functional", Network: "cnn", FaultRate: f64(0)}},
	} {
		cka, bka, err := tc.a.Keys()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ckb, bkb, err := tc.b.Keys()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if cka != ckb || bka != bkb {
			t.Errorf("%s: keys differ:\n%s\n%s", tc.name, cka, ckb)
		}
	}
}
