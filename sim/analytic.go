package sim

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/accel"
	"repro/internal/area"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/params"
)

func init() {
	mustRegister("timely", newTimely)
	mustRegister("prime", newAnalytic("prime"))
	mustRegister("isaac", newAnalytic("isaac"))
}

// analytic serves the architecture-level models over the Table III
// benchmark zoo. Evaluations at the shared default design point are
// memoized process-wide together with the experiment harness.
type analytic struct {
	name string
	cfg  Config
}

// timelyBackend adds the Designer view only TIMELY has (PRIME and ISAAC
// contribute published peaks, not a parameterised design).
type timelyBackend struct {
	analytic
}

func newTimely(cfg *Config) (Backend, error) {
	if err := cfg.reject("timely", optNoise, optFaultRate, optSeed, optTrials, optImages, optTrace); err != nil {
		return nil, err
	}
	return &timelyBackend{analytic{name: "timely", cfg: *cfg}}, nil
}

// newAnalytic builds the factory for the fixed-design baselines. Their
// precision is part of the published design (PRIME is 8-bit, ISAAC
// 16-bit), so only the deployment size is configurable.
func newAnalytic(name string) Factory {
	return func(cfg *Config) (Backend, error) {
		if err := cfg.reject(name, optBits, optSubChips, optGamma,
			optNoise, optFaultRate, optSeed, optTrials, optImages, optTrace); err != nil {
			return nil, err
		}
		return &analytic{name: name, cfg: *cfg}, nil
	}
}

// Name implements Backend.
func (a *analytic) Name() string { return a.name }

// Networks implements Backend: the Table III benchmark suite plus every
// registered custom network.
func (a *analytic) Networks() []string {
	names := model.BenchmarkNames()
	for _, info := range RegisteredNetworks() {
		names = append(names, info.Name)
	}
	sort.Strings(names)
	return names
}

// customDesign reports whether the configuration leaves the shared
// memoized design point (χ or γ overridden).
func (a *analytic) customDesign() bool {
	return a.cfg.IsSet(optSubChips) || a.cfg.IsSet(optGamma)
}

// Evaluate implements Backend: it resolves a Table III benchmark or a
// registered custom network by name.
func (a *analytic) Evaluate(ctx context.Context, network string) (*EvalResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	if n, err := model.ByName(network); err == nil {
		return a.finish(start, n, false)
	}
	if n, ok := registeredNetwork(network); ok {
		return a.finish(start, n, true)
	}
	return nil, fmt.Errorf("%w: %q (backend %q evaluates the Table III suite and registered custom networks)",
		ErrUnknownNetwork, network, a.name)
}

// EvaluateSpec implements SpecEvaluator: compile the inline spec through
// the same path the zoo uses, then evaluate the network like any other.
func (a *analytic) EvaluateSpec(ctx context.Context, spec *NetworkSpec) (*EvalResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	if spec == nil {
		return nil, fmt.Errorf("%w: nil spec", ErrInvalidSpec)
	}
	n, err := spec.Compile()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidSpec, err)
	}
	return a.finish(start, n, true)
}

// finish evaluates a compiled network and assembles the typed result.
// Zoo benchmarks at the shared design point memoize under their Table III
// name (the cache the experiment suite shares); custom networks memoize
// under their canonical spec hash, which the result reports.
func (a *analytic) finish(start time.Time, n *model.Network, custom bool) (*EvalResult, error) {
	var res *accel.Result
	var err error
	switch {
	case a.customDesign():
		t := accel.NewTimely(a.cfg.Bits, a.cfg.Chips)
		if a.cfg.IsSet(optSubChips) {
			t.Cfg.SubChips = a.cfg.SubChips
		}
		if a.cfg.IsSet(optGamma) {
			t.Cfg.Gamma = a.cfg.Gamma
		}
		res, err = t.Evaluate(n)
	case custom:
		res, err = experiments.EvalSpec(a.name, a.cfg.Bits, a.cfg.Chips, n)
	default:
		res, err = experiments.Eval(a.name, a.cfg.Bits, a.cfg.Chips, n.Name)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: %s/%s: %w", a.name, n.Name, err)
	}
	fits := res.Fits
	out := &EvalResult{
		Backend:          a.name,
		Network:          n.Name,
		Chips:            a.cfg.Chips,
		EnergyMJPerImage: res.EnergyPerImageMJ(),
		PowerWatts:       res.AveragePowerWatts(),
		ImagesPerSec:     res.ImagesPerSec,
		TOPsPerWatt:      res.EfficiencyTOPsPerWatt(n),
		Fits:             &fits,
	}
	if custom {
		out.SpecHash = n.SpecHash()
	}
	if a.name == "timely" {
		out.AreaMM2 = a.design().ChipAreaMM2 * float64(a.cfg.Chips)
	}
	for _, c := range energy.Components() {
		ops := res.Ledger.Count(c)
		if ops == 0 {
			continue
		}
		out.EnergyBreakdown = append(out.EnergyBreakdown, ComponentEnergy{
			Component:   c.String(),
			Ops:         ops,
			MilliJoules: res.Ledger.Energy(c) * 1e-12,
		})
	}
	for _, cl := range []energy.Class{energy.ClassInput, energy.ClassPsum, energy.ClassOutput} {
		out.MovementByClass = append(out.MovementByClass, ClassEnergy{
			Class:       cl.String(),
			MilliJoules: res.Ledger.MovementByClass(cl) * 1e-12,
		})
	}
	out.ElapsedMS = elapsedMS(start)
	return out, nil
}

// design resolves the configured TIMELY design point: Table II with the
// interface banks resized to γ and the sub-chip count to χ, evaluated by
// the same area arithmetic as the §V γ ablation.
func (a *analytic) design() *Design {
	cfg := params.DefaultTimely(a.cfg.Bits)
	if a.cfg.IsSet(optGamma) {
		cfg.Gamma = a.cfg.Gamma
	}
	if a.cfg.IsSet(optSubChips) {
		cfg.SubChips = a.cfg.SubChips
	}
	d := area.TimelyDesignPoint(cfg)
	return &Design{
		Bits:               cfg.WeightBits,
		SubChipsPerChip:    cfg.SubChips,
		Gamma:              cfg.Gamma,
		CycleNS:            d.CycleNS,
		SubChipAreaMM2:     d.SubChipUM2 / 1e6,
		ChipAreaMM2:        d.SubChipUM2 / 1e6 * float64(cfg.SubChips),
		PeakTOPSPerSubChip: d.PeakTOPS,
		DensityTOPsPerMM2:  d.DensityTOPsMM2,
	}
}

// Design implements Designer for the "timely" backend.
func (t *timelyBackend) Design() *Design { return t.design() }
