package experiments

import (
	"context"
	"fmt"

	"repro/internal/accel"
	"repro/internal/report"
	"repro/internal/stats"
)

// Fig8aRow is one benchmark's normalized energy efficiency (Fig. 8(a)).
type Fig8aRow struct {
	Network string
	// OverPrime is TIMELY-8's energy-efficiency gain over PRIME (8-bit
	// comparison, footnote a); OverIsaac is TIMELY-16 over ISAAC.
	OverPrime, OverIsaac float64
}

// Fig8a evaluates the full Table III suite and appends the geometric means
// the paper reports (10.0× over PRIME, 14.8× over ISAAC). Cancellation is
// checked between benchmarks.
func Fig8a(ctx context.Context) ([]Fig8aRow, Fig8aRow, error) {
	var rows []Fig8aRow
	var primes, isaacs []float64
	for _, n := range benchmarks() {
		if err := ctx.Err(); err != nil {
			return nil, Fig8aRow{}, err
		}
		t8, err := evalTimely(8, 1, n.Name)
		if err != nil {
			return nil, Fig8aRow{}, fmt.Errorf("timely-8 %s: %w", n.Name, err)
		}
		pr, err := evalPrime(1, n.Name)
		if err != nil {
			return nil, Fig8aRow{}, fmt.Errorf("prime %s: %w", n.Name, err)
		}
		t16, err := evalTimely(16, 1, n.Name)
		if err != nil {
			return nil, Fig8aRow{}, fmt.Errorf("timely-16 %s: %w", n.Name, err)
		}
		is, err := evalIsaac(1, n.Name)
		if err != nil {
			return nil, Fig8aRow{}, fmt.Errorf("isaac %s: %w", n.Name, err)
		}
		row := Fig8aRow{
			Network:   n.Name,
			OverPrime: pr.Ledger.Total() / t8.Ledger.Total(),
			OverIsaac: is.Ledger.Total() / t16.Ledger.Total(),
		}
		rows = append(rows, row)
		primes = append(primes, row.OverPrime)
		isaacs = append(isaacs, row.OverIsaac)
	}
	geo := Fig8aRow{
		Network:   "geomean",
		OverPrime: stats.GeoMean(primes),
		OverIsaac: stats.GeoMean(isaacs),
	}
	return rows, geo, nil
}

// Fig8bRow is one CNN × chip-count throughput comparison (Fig. 8(b)).
type Fig8bRow struct {
	Network string
	Chips   int
	// TimelyIPS / PrimeIPS / IsaacIPS are images per second.
	TimelyIPS, PrimeIPS, IsaacIPS float64
	// OverPrime / OverIsaac are TIMELY's normalized throughputs.
	OverPrime, OverIsaac float64
}

// fig8bNetworks are the 8 CNNs with published weight-duplication ratios
// (Table III's VGG and MSRA families).
func fig8bNetworks() []string {
	return []string{"VGG-D", "VGG-1", "VGG-2", "VGG-3", "VGG-4", "MSRA-1", "MSRA-2", "MSRA-3"}
}

// Fig8b runs the throughput comparison across {16,32,64}-chip deployments.
// The PRIME panel pits TIMELY-8 with uniform network duplication against
// PRIME's serial execution; the ISAAC panel gives TIMELY-16 ISAAC's own
// balanced duplication ratios, per the paper's methodology (§VI-B).
func Fig8b(ctx context.Context) ([]Fig8bRow, error) {
	var rows []Fig8bRow
	for _, name := range fig8bNetworks() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n, err := network(name)
		if err != nil {
			return nil, err
		}
		for _, chips := range []int{16, 32, 64} {
			t8, err := evalTimely(8, chips, name)
			if err != nil {
				return nil, err
			}
			pr, err := evalPrime(chips, name)
			if err != nil {
				return nil, err
			}
			is, err := evalIsaac(chips, name)
			if err != nil {
				return nil, err
			}
			t16 := accel.NewTimely(16, chips)
			t16.LayerInstances = is.Instances
			r16, err := t16.Evaluate(n)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig8bRow{
				Network: name, Chips: chips,
				TimelyIPS: t8.ImagesPerSec,
				PrimeIPS:  pr.ImagesPerSec,
				IsaacIPS:  is.ImagesPerSec,
				OverPrime: t8.ImagesPerSec / pr.ImagesPerSec,
				OverIsaac: r16.ImagesPerSec / is.ImagesPerSec,
			})
		}
	}
	return rows, nil
}

func runFig8a(ctx context.Context) ([]*report.Table, error) {
	rows, geo, err := Fig8a(ctx)
	if err != nil {
		return nil, err
	}
	t := report.New("Fig. 8(a): normalized energy efficiency of TIMELY",
		"network", "over PRIME (8b)", "over ISAAC (16b)")
	for _, r := range rows {
		t.Add(r.Network, report.X(r.OverPrime), report.X(r.OverIsaac))
	}
	t.Add(geo.Network, report.X(geo.OverPrime), report.X(geo.OverIsaac))
	return []*report.Table{t}, nil
}

func runFig8b(ctx context.Context) ([]*report.Table, error) {
	rows, err := Fig8b(ctx)
	if err != nil {
		return nil, err
	}
	t := report.New("Fig. 8(b): normalized throughput of TIMELY",
		"network", "chips", "TIMELY-8 img/s", "PRIME img/s", "over PRIME", "over ISAAC")
	for _, r := range rows {
		t.AddF(r.Network, r.Chips, r.TimelyIPS, r.PrimeIPS,
			report.X(r.OverPrime), fmt.Sprintf("%.2fx", r.OverIsaac))
	}
	return []*report.Table{t}, nil
}

func init() {
	register(Experiment{
		ID:          "fig8a",
		Paper:       "Fig. 8(a)",
		Description: "normalized energy efficiency on 15 benchmarks",
		Run:         runFig8a,
	})
	register(Experiment{
		ID:          "fig8b",
		Paper:       "Fig. 8(b)",
		Description: "normalized throughput on 8 CNNs x {16,32,64} chips",
		Run:         runFig8b,
	})
}
