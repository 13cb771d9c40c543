package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/place/global"
)

// runModel places cfg with the baseline flow under the given wirelength
// model.
func runModel(cfg gen.Config, model string, opts RunOpts) (*core.Result, error) {
	b := gen.Generate(cfg)
	g := opts.globalOpts()
	g.WLModel = model
	res, err := core.PlaceCtx(context.Background(), b.Netlist, b.Core, b.Placement, core.Options{
		Mode:   core.Baseline,
		Global: g,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s model %s: %w", cfg.Name, model, err)
	}
	return res, nil
}

// Figure5 sweeps the datapath fraction at a roughly constant design size and
// reports the structure-aware HPWL improvement per point: the crossover
// figure — negligible benefit on random logic, growing with regularity.
func Figure5(opts RunOpts) (*Table, error) {
	t := &Table{
		ID:    "Figure 5",
		Title: "Quality vs datapath fraction (fixed ~3k-cell budget)",
		Header: []string{"target frac", "actual frac", "HPWL ratio", "rWL ratio",
			"base ovfl", "SA ovfl", "ovfl ratio"},
	}
	totalCells := 3000
	if opts.Quick {
		totalCells = 1200
	}
	// One 16-bit adder unit is ≈ 130 cells.
	const adderCells = 130
	for _, frac := range []float64{0, 0.15, 0.3, 0.5, 0.7} {
		units := int(frac*float64(totalCells)/adderCells + 0.5)
		kinds := make([]gen.UnitKind, units)
		for i := range kinds {
			kinds[i] = gen.UnitKind(i % 4)
		}
		cfg := gen.Config{
			Name:        fmt.Sprintf("frac%02.0f", frac*100),
			Seed:        500 + int64(frac*100),
			Bits:        16,
			Units:       kinds,
			RandomCells: totalCells - units*adderCells,
		}
		if cfg.RandomCells < 0 {
			cfg.RandomCells = 0
		}
		c, err := RunCase(cfg, opts)
		if err != nil {
			return nil, err
		}
		ovStr := "n/a"
		if c.BaseRep.Routed.Overflow > 0 {
			ovStr = f3(c.SARep.Routed.Overflow / c.BaseRep.Routed.Overflow)
		}
		t.AddRow(pct(frac), pct(c.Bench.DatapathFraction()),
			f3(c.SA.HPWLFinal/c.Base.HPWLFinal),
			f3(c.SARep.Routed.WirelengthDB/c.BaseRep.Routed.WirelengthDB),
			f0(c.BaseRep.Routed.Overflow), f0(c.SARep.Routed.Overflow), ovStr)
	}
	t.Notes = append(t.Notes,
		"paper-shape claim: flows tie at fraction 0 and structure-awareness wins when regularity dominates.",
		"Observed: high variance — the benefit depends on chain shape as much as on raw fraction (many short",
		"units splinter into banks; see dp05 in Table 3 for the long-chain regime where SA wins every metric).")
	return t, nil
}

// Figure6 traces global-placement convergence for both flows on one design:
// HPWL, density overflow and group alignment per outer iteration.
func Figure6(cfg gen.Config, opts RunOpts) (*Table, error) {
	t := &Table{
		ID:    "Figure 6",
		Title: fmt.Sprintf("Global placement convergence on %s (per outer iteration)", cfg.Name),
		Header: []string{"iter", "base HPWL", "base ovfl", "base align",
			"SA HPWL", "SA ovfl", "SA align"},
	}
	b := gen.Generate(cfg)

	// Shared group definition so both traces are scored identically.
	ext := coreExtract(b)
	groups := global.AlignGroupsFromExtraction(ext)

	type pt struct{ hpwl, ovfl, align float64 }
	trace := func(withGroups bool) ([]pt, error) {
		pl := b.Placement.Clone()
		g := opts.globalOpts()
		if withGroups {
			g.Groups = groups
		}
		var pts []pt
		g.Trace = func(tp global.TracePoint) {
			// Score alignment against the same groups in both flows.
			cx := make([]float64, b.Netlist.NumCells())
			cy := make([]float64, b.Netlist.NumCells())
			for i := range b.Netlist.Cells {
				cx[i] = pl.X[i] + b.Netlist.Cells[i].W/2
				cy[i] = pl.Y[i] + b.Netlist.Cells[i].H/2
			}
			pts = append(pts, pt{
				hpwl:  tp.HPWL,
				ovfl:  tp.Overflow,
				align: global.AlignmentScore(groups, b.Core.RowH(), cx, cy),
			})
		}
		if _, err := global.PlaceCtx(context.Background(), b.Netlist, pl, b.Core, g); err != nil {
			return nil, err
		}
		return pts, nil
	}

	basePts, err := trace(false)
	if err != nil {
		return nil, err
	}
	saPts, err := trace(true)
	if err != nil {
		return nil, err
	}
	n := len(basePts)
	if len(saPts) > n {
		n = len(saPts)
	}
	get := func(pts []pt, i int) pt {
		if i < len(pts) {
			return pts[i]
		}
		if len(pts) == 0 {
			return pt{}
		}
		return pts[len(pts)-1]
	}
	for i := 0; i < n; i++ {
		bp, sp := get(basePts, i), get(saPts, i)
		t.AddRow(fmt.Sprint(i),
			f0(bp.hpwl), f3(bp.ovfl), f2(bp.align),
			f0(sp.hpwl), f3(sp.ovfl), f2(sp.align))
	}
	t.Notes = append(t.Notes,
		"paper-shape claim: both flows converge in overflow; only SA drives alignment down")
	return t, nil
}

// Figure7 is the alignment-weight ablation: α multiplier sweep on one
// design. Too little α loses structure; too much hurts wirelength.
func Figure7(cfg gen.Config, opts RunOpts) (*Table, error) {
	t := &Table{
		ID:     "Figure 7",
		Title:  fmt.Sprintf("Alignment-weight (α) sweep on %s", cfg.Name),
		Header: []string{"α multiplier", "HPWL", "global align RMS", "legal HPWL"},
	}
	b := gen.Generate(cfg)
	ext := coreExtract(b)
	groups := global.AlignGroupsFromExtraction(ext)
	for _, mult := range []float64{0.01, 0.1, 1, 10, 100} {
		pl := b.Placement.Clone()
		g := opts.globalOpts()
		g.Groups = groups
		// The sweep studies the soft-penalty formulation; the default hard
		// mode has no α (alignment is exact by variable substitution).
		g.AlignMode = global.AlignSoft
		g.AlignWeight = mult
		res, err := global.PlaceCtx(context.Background(), b.Netlist, pl, b.Core, g)
		if err != nil {
			return nil, err
		}
		// Legalize to expose the real cost of a sloppy (or over-tight)
		// global alignment.
		legalHPWL := legalizeFor(b, pl, groups)
		t.AddRow(fmt.Sprintf("%g", mult), f0(res.HPWL), f2(res.AlignRMS), f0(legalHPWL))
	}
	t.Notes = append(t.Notes,
		"paper-shape claim: interior optimum — small α leaves arrays scattered (legalization pays), huge α distorts wirelength")
	return t, nil
}
