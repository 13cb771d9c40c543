package legal_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/datapath"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/place/global"
	"repro/internal/place/legal"
)

func placedBench(t *testing.T) (*gen.Benchmark, *netlist.Placement, []global.AlignGroup) {
	t.Helper()
	b := gen.Generate(gen.Config{
		Name: "lg", Seed: 21, Bits: 8,
		Units:       []gen.UnitKind{gen.Adder, gen.RegBank},
		RandomCells: 300,
		Pads:        12,
	})
	ext := datapath.Extract(b.Netlist, datapath.DefaultOptions())
	groups := global.AlignGroupsFromExtraction(ext)
	pl := b.Placement.Clone()
	if _, err := global.PlaceCtx(context.Background(), b.Netlist, pl, b.Core, global.Options{
		MaxOuterIters: 18, InnerIters: 35, Groups: groups,
	}); err != nil {
		t.Fatal(err)
	}
	return b, pl, groups
}

func TestLegalizeProducesLegalPlacement(t *testing.T) {
	b, pl, groups := placedBench(t)
	res, err := legal.LegalizeCtx(context.Background(), b.Netlist, pl, b.Core, legal.Options{Groups: groups})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.CheckLegal(b.Netlist, b.Core); err != nil {
		t.Fatalf("not legal: %v", err)
	}
	if res.TotalDisplacement <= 0 {
		t.Error("zero displacement is implausible")
	}
	if res.GroupBlocks == 0 {
		t.Error("no group placed as a block")
	}
}

func TestLegalizePreservesGroupAlignment(t *testing.T) {
	b, pl, groups := placedBench(t)
	if _, err := legal.LegalizeCtx(context.Background(), b.Netlist, pl, b.Core, legal.Options{Groups: groups}); err != nil {
		t.Fatal(err)
	}
	// Every block-placed group: same-column cells share x exactly; bit b
	// sits exactly b rows above bit 0.
	rowH := b.Core.RowH()
	checked := 0
	for _, g := range groups {
		aligned := true
		for _, col := range g.Cols {
			for _, c := range col[1:] {
				if pl.X[c] != pl.X[col[0]] {
					aligned = false
				}
			}
			for bit, c := range col {
				if math.Abs(pl.Y[c]-(pl.Y[col[0]]+float64(bit)*rowH)) > 1e-9 {
					aligned = false
				}
			}
		}
		if aligned {
			checked++
		}
	}
	if checked == 0 {
		t.Error("no group survived legalization bit-aligned")
	}
}

func TestLegalizeBaselineNoGroups(t *testing.T) {
	b, pl, _ := placedBench(t)
	if _, err := legal.LegalizeCtx(context.Background(), b.Netlist, pl, b.Core, legal.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := pl.CheckLegal(b.Netlist, b.Core); err != nil {
		t.Fatalf("baseline legalization not legal: %v", err)
	}
}

func TestLegalizeRespectsFixedObstacles(t *testing.T) {
	// Small synthetic core with a fixed macro in the middle.
	nl := netlist.New("obs")
	blk := nl.MustAddCell("blk", "MACRO", 40, 20, true)
	var cells []netlist.CellID
	for i := 0; i < 40; i++ {
		c := nl.MustAddCell(cellName(i), "STD", 4, 10, false)
		cells = append(cells, c)
	}
	// A couple of nets so displacement means something.
	for i := 0; i+1 < len(cells); i += 2 {
		nl.MustAddNet(cellName(i)+"n", 1,
			netlist.Endpoint{Cell: cells[i], Pin: "Y", Dir: netlist.DirOutput},
			netlist.Endpoint{Cell: cells[i+1], Pin: "A", Dir: netlist.DirInput},
		)
	}
	core := geom.NewCore(geom.NewRect(0, 0, 100, 50), 10, 1)
	pl := netlist.NewPlacement(nl)
	pl.SetLoc(blk, geom.Point{X: 30, Y: 20}) // blocks rows 2-3 in [30,70)
	for i, c := range cells {
		pl.SetLoc(c, geom.Point{X: 45 + float64(i%3), Y: 25})
	}
	if _, err := legal.LegalizeCtx(context.Background(), nl, pl, core, legal.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := pl.CheckLegal(nl, core); err != nil {
		t.Fatalf("not legal: %v", err)
	}
	// No movable cell may overlap the macro.
	blkRect := pl.CellRect(nl, blk)
	for _, c := range cells {
		if pl.CellRect(nl, c).Overlap(blkRect) > 0 {
			t.Fatalf("cell %d overlaps the fixed macro", c)
		}
	}
}

func TestLegalizeTallCell(t *testing.T) {
	nl := netlist.New("tall")
	tall := nl.MustAddCell("tall", "MACRO", 10, 20, false) // 2 rows, movable
	small := nl.MustAddCell("s", "STD", 4, 10, false)
	nl.MustAddNet("n", 1,
		netlist.Endpoint{Cell: tall, Pin: "A", Dir: netlist.DirInput},
		netlist.Endpoint{Cell: small, Pin: "Y", Dir: netlist.DirOutput},
	)
	core := geom.NewCore(geom.NewRect(0, 0, 100, 50), 10, 1)
	pl := netlist.NewPlacement(nl)
	pl.SetLoc(tall, geom.Point{X: 50.3, Y: 23.7})
	pl.SetLoc(small, geom.Point{X: 50.4, Y: 23.9})
	if _, err := legal.LegalizeCtx(context.Background(), nl, pl, core, legal.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := pl.CheckLegal(nl, core); err != nil {
		t.Fatalf("not legal: %v", err)
	}
}

func TestLegalizeOverfullFails(t *testing.T) {
	nl := netlist.New("full")
	var ends []netlist.Endpoint
	for i := 0; i < 30; i++ {
		c := nl.MustAddCell(cellName(i), "STD", 10, 10, false)
		ends = append(ends, netlist.Endpoint{Cell: c, Pin: "A", Dir: netlist.DirInput})
	}
	nl.MustAddNet("n", 1, ends...)
	core := geom.NewCore(geom.NewRect(0, 0, 50, 20), 10, 1) // 100 sites for 300 width
	pl := netlist.NewPlacement(nl)
	if _, err := legal.LegalizeCtx(context.Background(), nl, pl, core, legal.Options{}); err == nil {
		t.Fatal("over-full design legalized successfully?!")
	}
}

func cellName(i int) string {
	return "c" + string(rune('a'+i%26)) + string(rune('0'+i/26))
}

// TestLegalizeSearchesTwelveRows pins rowSearchSpan at 12. A fixed macro
// leaves rows 0–5 free only at x ≥ 88, so within four rows of its desired
// row 0 the cell lands 78 units right of its desired x. Six rows up, row 6
// has room right at it, for a displacement of 60: a search that spans
// twelve rows finds it.
func TestLegalizeSearchesTwelveRows(t *testing.T) {
	nl := netlist.New("span")
	blk := nl.MustAddCell("blk", "MACRO", 88, 60, true)
	c := nl.MustAddCell("c", "STD", 4, 10, false)
	core := geom.NewCore(geom.NewRect(0, 0, 100, 200), 10, 1)
	pl := netlist.NewPlacement(nl)
	pl.SetLoc(blk, geom.Point{X: 0, Y: 0})
	pl.SetLoc(c, geom.Point{X: 10, Y: 0})
	res, err := legal.LegalizeCtx(context.Background(), nl, pl, core, legal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Loc(c); got != (geom.Point{X: 10, Y: 60}) || res.TotalDisplacement != 60 {
		t.Fatalf("cell legalized to %v (displacement %v), want (10,60) in row 6 (60)", got, res.TotalDisplacement)
	}
}
