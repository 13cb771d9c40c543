package experiments

import (
	"context"

	"repro/internal/datapath"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/place/global"
	"repro/internal/place/legal"
)

// coreExtract runs default extraction on a benchmark.
func coreExtract(b *gen.Benchmark) *datapath.Extraction {
	return datapath.Extract(b.Netlist, datapath.DefaultOptions())
}

// legalizeFor legalizes a copy of pl group-aware and returns the resulting
// HPWL (Inf-like large value on failure so sweeps keep going).
func legalizeFor(b *gen.Benchmark, pl *netlist.Placement, groups []global.AlignGroup) float64 {
	cp := pl.Clone()
	if _, err := legal.LegalizeCtx(context.Background(), b.Netlist, cp, b.Core, legal.Options{Groups: groups}); err != nil {
		return -1
	}
	return cp.HPWL(b.Netlist)
}
