package route

import (
	"context"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
)

func grDesign(t *testing.T, locs [][2]float64, nets [][]int) (*netlist.Netlist, *netlist.Placement) {
	t.Helper()
	nl := netlist.New("gr")
	for i := range locs {
		nl.MustAddCell(cellNameGR(i), "STD", 1, 1, false)
	}
	for ni, conn := range nets {
		ends := make([]netlist.Endpoint, 0, len(conn))
		for k, c := range conn {
			dir := netlist.DirInput
			if k == 0 {
				dir = netlist.DirOutput
			}
			ends = append(ends, netlist.Endpoint{Cell: netlist.CellID(c), Pin: pinNameGR(ni, k), Dir: dir})
		}
		nl.MustAddNet(cellNameGR(1000+ni), 1, ends...)
	}
	pl := netlist.NewPlacement(nl)
	for i, p := range locs {
		pl.SetLoc(netlist.CellID(i), geom.Point{X: p[0], Y: p[1]})
	}
	return nl, pl
}

func cellNameGR(i int) string {
	return "g" + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10)) + string(rune('A'+i/260))
}
func pinNameGR(n, k int) string {
	return "p" + string(rune('a'+n%26)) + string(rune('0'+k))
}

func TestGlobalRouteSingleNetLength(t *testing.T) {
	// Two pins far apart: routed WL ≈ Manhattan distance (bin-quantized).
	nl, pl := grDesign(t, [][2]float64{{5, 5}, {85, 45}}, [][]int{{0, 1}})
	region := geom.NewRect(0, 0, 100, 50)
	res := GlobalRouteCtx(context.Background(), nl, pl, region, GRouteOptions{NX: 20, NY: 10})
	want := 80.0 + 40.0
	if math.Abs(res.WirelengthDB-want) > 12 {
		t.Errorf("routed WL = %g, want ≈%g", res.WirelengthDB, want)
	}
	if res.Overflow != 0 {
		t.Errorf("single net overflowed: %g", res.Overflow)
	}
}

func TestGlobalRouteSameBinIsFree(t *testing.T) {
	nl, pl := grDesign(t, [][2]float64{{5, 5}, {6, 6}}, [][]int{{0, 1}})
	res := GlobalRouteCtx(context.Background(), nl, pl, geom.NewRect(0, 0, 100, 100), GRouteOptions{NX: 10, NY: 10})
	if res.WirelengthDB != 0 {
		t.Errorf("intra-bin net routed: %g", res.WirelengthDB)
	}
}

func TestGlobalRouteDetoursAroundCongestion(t *testing.T) {
	// Many parallel nets crossing the same cut must spread over rows once
	// the cheapest row saturates: total WL grows beyond the sum of
	// straight-line lengths, and overflow stays bounded.
	var locs [][2]float64
	var nets [][]int
	n := 60
	for i := 0; i < n; i++ {
		// All pins pinched into two bins at the same y.
		locs = append(locs, [2]float64{2, 52}, [2]float64{97, 52})
		nets = append(nets, []int{2 * i, 2*i + 1})
	}
	nl, pl := grDesign(t, locs, nets)
	region := geom.NewRect(0, 0, 100, 100)
	res := GlobalRouteCtx(context.Background(), nl, pl, region, GRouteOptions{NX: 10, NY: 10, CapacityFactor: 0.35})
	straight := float64(n) * 90.0
	if res.WirelengthDB < straight*1.02 {
		t.Errorf("no detours under congestion: routed %g vs straight %g", res.WirelengthDB, straight)
	}
	// The capacity per horizontal edge is 0.35*10 = 3.5 tracks; 60 nets in
	// 10 rows cannot route overflow-free, but detouring must beat the
	// no-detour baseline (60 nets stacked on one row: 9 edges × 56.5 over).
	if res.MaxUsage <= 1 {
		t.Errorf("expected residual overflow, got max usage %g", res.MaxUsage)
	}
	noDetour := 9 * (float64(n) - 3.5)
	if res.Overflow > 0.9*noDetour {
		t.Errorf("rip-up did not relieve congestion: overflow %g vs no-detour %g", res.Overflow, noDetour)
	}
	// Spreading means many edges carry some overflow rather than one row
	// carrying it all.
	if res.OverflowEdges <= 9 {
		t.Errorf("congestion not spread: only %d overflowed edges", res.OverflowEdges)
	}
}

func TestGlobalRouteSkipsMonsterNets(t *testing.T) {
	var locs [][2]float64
	conn := []int{}
	for i := 0; i < 70; i++ {
		locs = append(locs, [2]float64{float64(i), float64(i)})
		conn = append(conn, i)
	}
	nl, pl := grDesign(t, locs, [][]int{conn})
	res := GlobalRouteCtx(context.Background(), nl, pl, geom.NewRect(0, 0, 100, 100), GRouteOptions{})
	if res.SkippedNets != 1 {
		t.Errorf("SkippedNets = %d, want 1", res.SkippedNets)
	}
	if res.WirelengthDB != 0 {
		t.Errorf("monster net was routed: %g", res.WirelengthDB)
	}
}

func TestMSTEdges(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 10, Y: 0}}
	edges := mstEdges(pts)
	if len(edges) != 2 {
		t.Fatalf("edges = %v", edges)
	}
	total := 0.0
	for _, e := range edges {
		total += pts[e[0]].Manhattan(pts[e[1]])
	}
	if total != 10 {
		t.Errorf("MST length = %g, want 10", total)
	}
	if mstEdges(pts[:1]) != nil {
		t.Error("single point should have no edges")
	}
}

func TestEdgeCostMonotone(t *testing.T) {
	prev := 0.0
	for u := 0.0; u <= 2.0; u += 0.1 {
		c := edgeCost(u*10, 10)
		if c < prev {
			t.Fatalf("edgeCost not monotone at u=%g", u)
		}
		prev = c
	}
	if edgeCost(5, 10) != 1 {
		t.Error("below-threshold cost should be 1")
	}
	if edgeCost(15, 10) <= 1 {
		t.Error("overloaded edge should cost more")
	}
}
