package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/place/congestion"
)

// Table10 measures the congestion feedback loop (DESIGN.md §15): each design
// placed by the structure-aware flow with the loop off and on, comparing
// routed overflow and final HPWL. The loop should buy routed overflow at a
// bounded (≤2%) HPWL cost — often a Pareto improvement.
func Table10(cfgs []gen.Config, opts RunOpts) (*Table, error) {
	t := &Table{
		ID:    "Table 10",
		Title: "Congestion feedback: routed overflow and HPWL, loop off vs on",
		Header: []string{"design", "ovfl off", "ovfl on", "ovfl ratio",
			"HPWL off", "HPWL on", "HPWL ratio", "snapshots", "inflated"},
	}
	place := func(b *gen.Benchmark, enable bool) (*core.Result, metrics.Report, error) {
		gOpt := opts.globalOpts()
		gOpt.Congestion = congestion.Options{Enable: enable}
		res, err := core.PlaceCtx(context.Background(), b.Netlist, b.Core, b.Placement, core.Options{
			Mode:   core.StructureAware,
			Global: gOpt,
		})
		if err != nil {
			return nil, metrics.Report{}, err
		}
		return res, metrics.Evaluate(b.Netlist, res.Placement, b.Core, metrics.Options{}), nil
	}
	for _, cfg := range cfgs {
		b := gen.Generate(cfg)
		off, offRep, err := place(b, false)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s congestion off: %w", cfg.Name, err)
		}
		on, onRep, err := place(b, true)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s congestion on: %w", cfg.Name, err)
		}
		ovRatio := "n/a"
		if offRep.Routed.Overflow > 0 {
			ovRatio = f3(onRep.Routed.Overflow / offRep.Routed.Overflow)
		}
		snapshots, inflated := 0, 0
		if st := on.GlobalResult.Congestion; st != nil {
			snapshots, inflated = st.Snapshots, st.InflatedCells
		}
		t.AddRow(cfg.Name,
			f0(offRep.Routed.Overflow), f0(onRep.Routed.Overflow), ovRatio,
			f0(off.HPWLFinal), f0(on.HPWLFinal), f3(on.HPWLFinal/off.HPWLFinal),
			fmt.Sprint(snapshots), fmt.Sprint(inflated))
	}
	t.Notes = append(t.Notes,
		"The maturity gate only opens once density overflow converges, so small/quick budgets may take",
		"few or zero snapshots; EXPERIMENTS.md Table 10 records the full-budget 12.9k-cell numbers.")
	return t, nil
}
