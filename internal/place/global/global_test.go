package global_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/datapath"
	"repro/internal/density"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/place/global"
)

func testBench(t *testing.T) *gen.Benchmark {
	t.Helper()
	return gen.Generate(gen.Config{
		Name: "gp", Seed: 11, Bits: 8,
		Units:       []gen.UnitKind{gen.Adder, gen.MuxTree},
		RandomCells: 250,
		Pads:        12,
	})
}

func TestInitQuadraticPullsTowardPads(t *testing.T) {
	b := testBench(t)
	pl := b.Placement.Clone()
	global.InitQuadratic(b.Netlist, pl, b.Core)
	// All movables inside the core.
	for i := range b.Netlist.Cells {
		if b.Netlist.Cells[i].Fixed {
			continue
		}
		r := pl.CellRect(b.Netlist, netlist.CellID(i))
		if !b.Core.Region.ContainsRect(r) {
			t.Fatalf("cell %d outside core after init: %v", i, r)
		}
	}
	// The quadratic solution should beat the all-at-center start on HPWL.
	if got, init := pl.HPWL(b.Netlist), b.Placement.HPWL(b.Netlist); got >= init {
		t.Errorf("quadratic init HPWL %.0f not better than center start %.0f", got, init)
	}
}

func TestPlaceBaselineSpreads(t *testing.T) {
	b := testBench(t)
	pl := b.Placement.Clone()
	res, err := global.PlaceCtx(context.Background(), b.Netlist, pl, b.Core, global.Options{
		MaxOuterIters: 20,
		InnerIters:    40,
	})
	if err != nil {
		t.Fatal(err)
	}
	grid := geom.NewGrid(b.Core.Region, 24, 24)
	ovStart := density.Overflow(b.Netlist, b.Placement, grid, 0.9)
	ovEnd := density.Overflow(b.Netlist, pl, grid, 0.9)
	if ovEnd > ovStart/2 {
		t.Errorf("placement did not spread: overflow %.3f -> %.3f", ovStart, ovEnd)
	}
	if res.HPWL <= 0 || math.IsNaN(res.HPWL) {
		t.Errorf("bad HPWL %g", res.HPWL)
	}
	// Everything inside the core.
	for i := range b.Netlist.Cells {
		if b.Netlist.Cells[i].Fixed {
			continue
		}
		r := pl.CellRect(b.Netlist, netlist.CellID(i))
		if !b.Core.Region.ContainsRect(r) {
			t.Fatalf("cell %d outside core: %v", i, r)
		}
	}
}

func TestPlaceStructureAwareAligns(t *testing.T) {
	b := testBench(t)
	ext := datapath.Extract(b.Netlist, datapath.DefaultOptions())
	if len(ext.Groups) == 0 {
		t.Fatal("no groups extracted")
	}
	groups := global.AlignGroupsFromExtraction(ext)

	base := b.Placement.Clone()
	resBase, err := global.PlaceCtx(context.Background(), b.Netlist, base, b.Core, global.Options{
		MaxOuterIters: 20, InnerIters: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	sa := b.Placement.Clone()
	resSA, err := global.PlaceCtx(context.Background(), b.Netlist, sa, b.Core, global.Options{
		MaxOuterIters: 20, InnerIters: 40, Groups: groups,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Baseline ignores groups, so score its result with the same groups.
	cx := make([]float64, b.Netlist.NumCells())
	cy := make([]float64, b.Netlist.NumCells())
	for i := range b.Netlist.Cells {
		cx[i] = base.X[i] + b.Netlist.Cells[i].W/2
		cy[i] = base.Y[i] + b.Netlist.Cells[i].H/2
	}
	baseAlign := global.AlignmentScore(groups, b.Core.RowH(), cx, cy)
	if resSA.AlignRMS >= baseAlign {
		t.Errorf("structure-aware alignment %.3f not better than baseline %.3f",
			resSA.AlignRMS, baseAlign)
	}
	// Structure-aware wirelength should stay in the same ballpark (< 1.5x).
	if resSA.HPWL > 1.5*resBase.HPWL {
		t.Errorf("structure-aware HPWL %.0f blew up vs baseline %.0f", resSA.HPWL, resBase.HPWL)
	}
}

func TestPlaceTraceAndModels(t *testing.T) {
	b := testBench(t)
	var traces []global.TracePoint
	pl := b.Placement.Clone()
	_, err := global.PlaceCtx(context.Background(), b.Netlist, pl, b.Core, global.Options{
		MaxOuterIters: 6, InnerIters: 15, WLModel: "lse",
		Trace: func(tp global.TracePoint) { traces = append(traces, tp) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("no trace points")
	}
	for _, tp := range traces {
		if math.IsNaN(tp.HPWL) || math.IsNaN(tp.Overflow) {
			t.Fatalf("NaN in trace: %+v", tp)
		}
	}
	// Unknown model rejected.
	if _, err := global.PlaceCtx(context.Background(), b.Netlist, pl, b.Core, global.Options{WLModel: "bogus"}); err == nil {
		t.Error("bogus model accepted")
	}
}

func TestAlignmentScoreZeroForPerfectArray(t *testing.T) {
	nl := netlist.New("a")
	var cols [][]netlist.CellID
	col := make([]netlist.CellID, 4)
	for b := 0; b < 4; b++ {
		col[b] = nl.MustAddCell(string(rune('a'+b)), "DFF", 4, 10, false)
	}
	cols = append(cols, col)
	groups := []global.AlignGroup{{Cols: cols}}
	cx := []float64{5, 5, 5, 5}
	cy := []float64{5, 15, 25, 35} // pitch 10
	if got := global.AlignmentScore(groups, 10, cx, cy); got != 0 {
		t.Errorf("perfect array score = %g, want 0", got)
	}
	cy[2] = 28 // misalign one bit
	if got := global.AlignmentScore(groups, 10, cx, cy); got <= 0 {
		t.Errorf("misaligned array score = %g, want > 0", got)
	}
}
