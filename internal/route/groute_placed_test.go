package route_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/place/global"
	"repro/internal/route"
)

// placedDesign generates suite design cfg and places it through the full
// flow (legalized and detail-placed) in the given mode. quick shortens the
// global schedule, which keeps the tests fast without changing what the
// router sees: a legal, spread placement.
func placedDesign(tb testing.TB, cfg gen.Config, mode core.Mode, quick bool) (*netlist.Netlist, *netlist.Placement, *geom.Core) {
	tb.Helper()
	bm := gen.Generate(cfg)
	opt := core.Options{Mode: mode}
	if quick {
		opt.Global = global.Options{MaxOuterIters: 8, InnerIters: 20}
	}
	res, err := core.PlaceCtx(context.Background(), bm.Netlist, bm.Core, bm.Placement, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return bm.Netlist, res.Placement, bm.Core
}

// sameBits reports whether two floats are the same bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestGlobalRouteMatchesReferenceOnPlacedDesigns routes placed suite
// designs with the scoring router and with the reference router that builds
// every candidate, and requires every GRouteResult field, the per-bin
// overflow map included, to match bit for bit. The tight capacity makes
// the rip-up passes reroute segments, so the comparison covers them too.
func TestGlobalRouteMatchesReferenceOnPlacedDesigns(t *testing.T) {
	suite := gen.Suite()
	overflowed := false
	for _, cfg := range suite[:2] {
		for _, mode := range []core.Mode{core.StructureAware, core.Baseline} {
			nl, pl, chip := placedDesign(t, cfg, mode, true)
			for _, capFactor := range []float64{0.8, 0.25} {
				opt := route.GRouteOptions{NX: 32, NY: 32, CapacityFactor: capFactor}
				got := route.GlobalRouteCtx(context.Background(), nl, pl, chip.Region, opt)
				want := route.GlobalRouteRef(nl, pl, chip.Region, opt)
				name := cfg.Name + "/" + mode.String()
				if !sameBits(got.WirelengthDB, want.WirelengthDB) || !sameBits(got.Overflow, want.Overflow) ||
					!sameBits(got.MaxUsage, want.MaxUsage) || got.OverflowEdges != want.OverflowEdges ||
					got.OverflowBins != want.OverflowBins || got.SkippedNets != want.SkippedNets ||
					got.Partial != want.Partial || got.GridNX != want.GridNX || got.GridNY != want.GridNY ||
					len(got.BinOverflow) != len(want.BinOverflow) {
					g, w := *got, *want
					g.BinOverflow, w.BinOverflow = nil, nil // compared below; too long to print
					t.Fatalf("%s cap %g: result %+v, reference %+v", name, capFactor, g, w)
				}
				for i := range want.BinOverflow {
					if !sameBits(got.BinOverflow[i], want.BinOverflow[i]) {
						t.Fatalf("%s cap %g: BinOverflow[%d] = %v, reference %v",
							name, capFactor, i, got.BinOverflow[i], want.BinOverflow[i])
					}
				}
				overflowed = overflowed || got.Overflow > 0
			}
		}
	}
	if !overflowed {
		t.Fatal("no case overflowed; the rip-up passes went untested")
	}
}

// BenchmarkGlobalRoute measures one global routing of a placed ~1k-cell
// suite design (dp02) with the options metrics.Evaluate uses. Run it with
// -benchmem: B/op and allocs/op are the router's garbage per evaluation.
func BenchmarkGlobalRoute(b *testing.B) {
	nl, pl, chip := placedDesign(b, gen.Suite()[1], core.StructureAware, false)
	opt := route.GRouteOptions{NX: 32, NY: 32, WirePitch: 1, CapacityFactor: 0.8}
	b.ReportAllocs()
	for b.Loop() {
		route.GlobalRouteCtx(context.Background(), nl, pl, chip.Region, opt)
	}
}
