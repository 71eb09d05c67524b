package sim

import (
	"context"
	"fmt"
	"time"

	"repro/internal/accel"
	"repro/internal/area"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/model"
)

// evaluateAnalytic serves the architecture-level models ("timely",
// "prime", "isaac") over the Table III benchmark zoo, registered custom
// networks and inline specs.
func evaluateAnalytic(ctx context.Context, c config, req *EvalRequest) (*EvalResult, error) {
	start := time.Now()
	n, custom, err := lookupNetwork(ctx, req)
	if err != nil {
		return nil, err
	}
	out, err := analytic(c.backend, c, n, custom)
	if err != nil {
		return nil, err
	}
	out.ElapsedMS = elapsedMS(start)
	return out, nil
}

// lookupNetwork resolves the network an analytic or timing request names:
// a Table III benchmark, or a custom network — inline, or registered in
// the package default registry — compiled through the same path the zoo
// uses. custom reports whether the network is keyed by its spec hash
// rather than its zoo name.
func lookupNetwork(ctx context.Context, req *EvalRequest) (n *model.Network, custom bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	r := *req
	if err := defaultRegistry.Resolve(&r); err != nil {
		return nil, false, err
	}
	if r.Spec == nil { // Resolve leaves only zoo names unresolved
		n, err = model.ByName(r.Network)
		return n, false, err
	}
	if n, err = r.Spec.Compile(); err != nil {
		return nil, false, fmt.Errorf("%w: %w", ErrInvalidSpec, err)
	}
	return n, true, nil
}

// analytic evaluates a compiled network on the named analytic model and
// assembles the typed result. Zoo benchmarks at the shared design point
// memoize under their Table III name (the cache the experiment suite
// shares); custom networks memoize under their canonical spec hash, which
// the result reports. A χ or γ override leaves the shared design point
// and evaluates unmemoized.
func analytic(name string, c config, n *model.Network, custom bool) (*EvalResult, error) {
	var res *accel.Result
	var err error
	switch {
	case c.subChips != 0 || c.gamma != 0:
		res, err = (&accel.Timely{Cfg: timelyConfig(c)}).Evaluate(n)
	case custom:
		res, err = experiments.EvalSpec(name, c.bits, c.chips, n)
	default:
		res, err = experiments.Eval(name, c.bits, c.chips, n.Name)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: %s/%s: %w", name, n.Name, err)
	}
	fits := res.Fits
	out := &EvalResult{
		Backend:          name,
		Network:          n.Name,
		Chips:            c.chips,
		EnergyMJPerImage: res.EnergyPerImageMJ(),
		PowerWatts:       res.AveragePowerWatts(),
		ImagesPerSec:     res.ImagesPerSec,
		TOPsPerWatt:      res.EfficiencyTOPsPerWatt(n),
		Fits:             &fits,
	}
	if custom {
		out.SpecHash = n.SpecHash()
	}
	if name == "timely" {
		out.AreaMM2 = design(c).ChipAreaMM2 * float64(c.chips)
	}
	for _, comp := range energy.Components() {
		ops := res.Ledger.Count(comp)
		if ops == 0 {
			continue
		}
		out.EnergyBreakdown = append(out.EnergyBreakdown, ComponentEnergy{
			Component:   comp.String(),
			Ops:         ops,
			MilliJoules: res.Ledger.Energy(comp) * 1e-12,
		})
	}
	for _, cl := range []energy.Class{energy.ClassInput, energy.ClassPsum, energy.ClassOutput} {
		out.MovementByClass = append(out.MovementByClass, ClassEnergy{
			Class:       cl.String(),
			MilliJoules: res.Ledger.MovementByClass(cl) * 1e-12,
		})
	}
	return out, nil
}

// design evaluates the request's TIMELY design point: Table II with the
// interface banks resized to γ and the sub-chip count to χ, by the same
// area arithmetic as the §V γ ablation.
func design(c config) *Design {
	cfg := timelyConfig(c)
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
