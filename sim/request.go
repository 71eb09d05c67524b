package sim

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"

	"repro/internal/params"
)

// The request fields an EvalRequest can set, as bits in field order. The
// order is the order validation reports them in.
const (
	fieldBits = 1 << iota
	fieldChips
	fieldSubChips
	fieldGamma
	fieldNoise
	fieldFaultRate
	fieldSeed
	fieldTrials
	fieldImages
	fieldTrace
)

// fieldNames are the wire names of the field bits, in bit order.
var fieldNames = [...]string{"bits", "chips", "sub_chips", "gamma", "noise_ps",
	"fault_rate", "seed", "trials", "images", "trace"}

// backendFields maps every backend to the request fields that apply to it.
// PRIME and ISAAC have a published design (8- and 16-bit), so only their
// deployment size is configurable.
var backendFields = map[string]uint16{
	"timely":     fieldBits | fieldChips | fieldSubChips | fieldGamma,
	"prime":      fieldChips,
	"isaac":      fieldChips,
	"functional": fieldNoise | fieldFaultRate | fieldSeed | fieldTrials,
	"timing":     fieldBits | fieldChips | fieldSubChips | fieldGamma | fieldImages | fieldTrace,
}

// Backends lists the backend names an EvalRequest may name, sorted.
func Backends() []string { return slices.Sorted(maps.Keys(backendFields)) }

// Functional-backend Monte-Carlo defaults: the seeds align with the
// experiment suite's accuracy and defect studies, so a default facade
// evaluation shares their memoized trained classifiers.
const (
	defaultMLPSeed = 2020
	defaultCNNSeed = 5
)

// config is a validated request with its defaults resolved: the Table II
// design point at one chip, the paper's design-point noise, five
// Monte-Carlo trials and the workload's experiment-suite seed.
type config struct {
	backend     string
	bits, chips int
	// subChips and gamma are χ and γ; 0 keeps the Table II value.
	subChips, gamma    int
	noisePS, faultRate float64
	seed               uint64
	trials, images     int
	trace              func(TraceSpan)
}

// resolve validates the request and resolves its defaults. It is the one
// validation step behind Evaluate, EvaluateBatch and Keys, and it reports
// the first failing rule in this order: the request shape (a backend, a
// network or spec, and agreement between the two), an unknown backend,
// then the options (see configure). It never consults a network registry
// (see Registry.Resolve).
func (r *EvalRequest) resolve() (config, error) {
	if r.Backend == "" {
		return config{}, fmt.Errorf("%w: request names no backend", ErrUnknownBackend)
	}
	if r.Spec == nil && r.Network == "" {
		return config{}, fmt.Errorf("%w: request names no network and carries no spec", ErrUnknownNetwork)
	}
	if r.Spec != nil && r.Network != "" && r.Network != r.Spec.Name {
		return config{}, fmt.Errorf("%w: request names network %q but the inline spec is %q",
			ErrInvalidSpec, r.Network, r.Spec.Name)
	}
	return r.configure()
}

// configure validates the backend and the configuration fields — an unknown
// backend, then out-of-range values and then fields foreign to the
// backend, each in field order, then the functional workload rules (no
// inline spec, only the fixed "mlp" and "cnn" workloads, fault rate only on
// "cnn", noise only on "mlp").
func (r *EvalRequest) configure() (config, error) {
	fields, ok := backendFields[r.Backend]
	if !ok {
		return config{}, fmt.Errorf("%w: %q (have %v)", ErrUnknownBackend, r.Backend, Backends())
	}
	if err := r.checkRanges(); err != nil {
		return config{}, err
	}
	if foreign := r.setFields() &^ fields; foreign != 0 {
		return config{}, fmt.Errorf("%w: %s does not apply to the %q backend",
			ErrInvalidOption, fieldNames[bits.TrailingZeros16(foreign)], r.Backend)
	}
	if r.Backend == "functional" {
		switch {
		case r.Spec != nil:
			return config{}, fmt.Errorf("%w: the %q backend does not evaluate custom network specs",
				ErrInvalidOption, r.Backend)
		case r.Network != "mlp" && r.Network != "cnn":
			return config{}, fmt.Errorf("%w: %q (the functional backend runs \"mlp\" or \"cnn\")",
				ErrUnknownNetwork, r.Network)
		case r.Network == "mlp" && r.FaultRate != nil:
			return config{}, fmt.Errorf("%w: fault injection applies to the \"cnn\" workload, not %q",
				ErrInvalidOption, r.Network)
		case r.Network == "cnn" && r.NoisePS != nil:
			return config{}, fmt.Errorf("%w: timing noise applies to the \"mlp\" workload, not %q",
				ErrInvalidOption, r.Network)
		}
	}

	c := config{backend: r.Backend, bits: 8, chips: 1, subChips: r.SubChips, gamma: r.Gamma,
		noisePS: params.DefaultXSubBufSigma, seed: defaultMLPSeed, trials: 5, images: r.Images, trace: r.Trace}
	if r.Bits != 0 {
		c.bits = r.Bits
	}
	if r.Chips != 0 {
		c.chips = r.Chips
	}
	if r.NoisePS != nil {
		c.noisePS = *r.NoisePS
	}
	if r.FaultRate != nil {
		c.faultRate = *r.FaultRate
	}
	switch {
	case r.Seed != nil:
		c.seed = *r.Seed
	case r.Network == "cnn":
		c.seed = defaultCNNSeed
	}
	if r.Trials != 0 {
		c.trials = r.Trials
	}
	return c, nil
}

// checkRanges rejects the first set field, in field order, whose value is
// out of range. Zero integer fields are unset.
func (r *EvalRequest) checkRanges() error {
	switch {
	case r.Bits != 0 && r.Bits != 8 && r.Bits != 16:
		return fmt.Errorf("%w: bits must be 8 or 16, got %d", ErrInvalidOption, r.Bits)
	case r.Chips < 0 || r.Chips > 4096:
		return fmt.Errorf("%w: chips must be in [1,4096], got %d", ErrInvalidOption, r.Chips)
	case r.SubChips < 0 || r.SubChips > 4096:
		return fmt.Errorf("%w: sub-chips must be in [1,4096], got %d", ErrInvalidOption, r.SubChips)
	case r.Gamma < 0 || r.Gamma > 256:
		return fmt.Errorf("%w: gamma must be in [1,256], got %d", ErrInvalidOption, r.Gamma)
	case r.NoisePS != nil && (*r.NoisePS < 0 || math.IsNaN(*r.NoisePS) || math.IsInf(*r.NoisePS, 0)):
		return fmt.Errorf("%w: noise epsilon must be a finite value >= 0 ps, got %v", ErrInvalidOption, *r.NoisePS)
	case r.FaultRate != nil && (*r.FaultRate < 0 || *r.FaultRate > 1 || math.IsNaN(*r.FaultRate)):
		return fmt.Errorf("%w: fault rate must be in [0,1], got %v", ErrInvalidOption, *r.FaultRate)
	case r.Trials < 0 || r.Trials > 1000:
		return fmt.Errorf("%w: trials must be in [1,1000], got %d", ErrInvalidOption, r.Trials)
	case r.Images < 0 || r.Images > 4096:
		return fmt.Errorf("%w: images must be in [1,4096], got %d", ErrInvalidOption, r.Images)
	}
	return nil
}

// setFields returns the field bits the request sets.
func (r *EvalRequest) setFields() uint16 {
	var set uint16
	for bit, ok := range []bool{r.Bits != 0, r.Chips != 0, r.SubChips != 0, r.Gamma != 0,
		r.NoisePS != nil, r.FaultRate != nil, r.Seed != nil, r.Trials != 0, r.Images != 0, r.Trace != nil} {
		if ok {
			set |= 1 << bit
		}
	}
	return set
}

// timelyConfig is the TIMELY deployment a resolved request models: Table
// II at the request's precision and chip count, with χ and γ overridden
// where set. The analytic evaluation, the design point and the timing
// simulation all read it.
func timelyConfig(c config) params.TimelyConfig {
	cfg := params.DefaultTimely(c.bits)
	cfg.Chips = c.chips
	if c.subChips != 0 {
		cfg.SubChips = c.subChips
	}
	if c.gamma != 0 {
		cfg.Gamma = c.gamma
	}
	return cfg
}
