package route

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/par"
)

func TestNetSteinerTrivial(t *testing.T) {
	if got := NetSteiner(nil); got != 0 {
		t.Errorf("empty = %g", got)
	}
	if got := NetSteiner([]geom.Point{{X: 3, Y: 4}}); got != 0 {
		t.Errorf("single = %g", got)
	}
	if got := NetSteiner([]geom.Point{{X: 0, Y: 0}, {X: 3, Y: 4}}); got != 7 {
		t.Errorf("pair = %g, want 7", got)
	}
}

func TestNetSteinerThreePins(t *testing.T) {
	// RSMT of 3 terminals = HPWL of their bbox.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 2}, {X: 4, Y: 8}}
	if got := NetSteiner(pts); got != 18 {
		t.Errorf("3-pin = %g, want 18", got)
	}
}

func TestNetSteinerCross(t *testing.T) {
	// Four pins at the arms of a cross: MST = 3 sides = 3*20 = 40 via
	// corner connections (each arm pair 20 apart in L1)... the Steiner
	// point at the center gives 4*10 = 40 too; but for a plus-shape with
	// unequal arms the Steiner point wins. Use the classic 4-corner case:
	// corners of a square: MST = 3*side*2? Let's verify the known optimum.
	side := 10.0
	pts := []geom.Point{{X: 0, Y: 0}, {X: side, Y: 0}, {X: 0, Y: side}, {X: side, Y: side}}
	got := NetSteiner(pts)
	// RSMT of a square's corners = 3*side (an "H" / comb shape).
	if math.Abs(got-3*side) > 1e-9 {
		t.Errorf("square corners = %g, want %g", got, 3*side)
	}
	// MST alone would be 3 edges × 10 (L1 dist between adjacent corners) = 30
	// here as well, but for a rectangle 20x10 the Steiner tree must beat
	// the 3-pin chain when pins interleave.
	pts2 := []geom.Point{{X: 0, Y: 0}, {X: 20, Y: 0}, {X: 0, Y: 10}, {X: 20, Y: 10}}
	got2 := NetSteiner(pts2)
	if math.Abs(got2-40) > 1e-9 { // trunk 20 + two rungs 2*10
		t.Errorf("rectangle corners = %g, want 40", got2)
	}
}

func TestSteinerNeverExceedsMST(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: math.Round(rng.Float64() * 50), Y: math.Round(rng.Float64() * 50)}
		}
		st := NetSteiner(pts)
		mst := mstLength(pts)
		// Steiner refinement can only improve, and never below the
		// theoretical 2/3 MST bound.
		return st <= mst+1e-9 && st >= mst*2/3-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSteinerAtLeastHPWL(t *testing.T) {
	// Any Steiner tree spans the bounding box: StWL >= HPWL.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		pts := make([]geom.Point, n)
		var b geom.BBox
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			b.Expand(pts[i])
		}
		return NetSteiner(pts) >= b.HalfPerimeter()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMSTLengthKnown(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 5, Y: 5}}
	if got := mstLength(pts); got != 10 {
		t.Errorf("mst = %g, want 10", got)
	}
}

func TestLargeNetFallsBackToMST(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]geom.Point, steinerRefineLimit+5)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	if got, want := NetSteiner(pts), mstLength(pts); got != want {
		t.Errorf("large net = %g, want MST %g", got, want)
	}
}

func buildNet(t *testing.T, locs []geom.Point) (*netlist.Netlist, *netlist.Placement) {
	t.Helper()
	nl := netlist.New("r")
	ends := make([]netlist.Endpoint, 0, len(locs))
	for i := range locs {
		id := nl.MustAddCell(string(rune('a'+i)), "STD", 1, 1, false)
		ends = append(ends, netlist.Endpoint{Cell: id, Pin: "P", Dir: netlist.DirInput})
	}
	nl.MustAddNet("n", 1, ends...)
	pl := netlist.NewPlacement(nl)
	for i, p := range locs {
		pl.SetLoc(netlist.CellID(i), p)
	}
	return nl, pl
}

func TestSteinerWL(t *testing.T) {
	nl, pl := buildNet(t, []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	if got := SteinerWLPool(context.Background(), nil, nl, pl); got != 10 {
		t.Errorf("SteinerWL = %g, want 10", got)
	}
}

func TestRUDYUniformNet(t *testing.T) {
	nl, pl := buildNet(t, []geom.Point{{X: 0, Y: 0}, {X: 99, Y: 99}})
	grid := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 10, 10)
	cm := RUDYPool(context.Background(), nil, nl, pl, grid, RUDYOptions{WireWidth: 1, Capacity: 1})
	// Total demand over bins should equal hpwl*wirewidth / capacity (up to
	// the padding of the box).
	total := 0.0
	for _, d := range cm.Demand {
		total += d * grid.BinW * grid.BinH
	}
	// The padded box clips slightly at the region boundary, losing ~1%.
	want := 99.0 + 99.0
	if math.Abs(total-want) > 4.0 {
		t.Errorf("total demand = %g, want ≈%g", total, want)
	}
}

func TestRUDYFlatNet(t *testing.T) {
	// Horizontal 2-pin net: degenerate bbox must not divide by zero.
	nl, pl := buildNet(t, []geom.Point{{X: 10, Y: 50}, {X: 90, Y: 50}})
	grid := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 10, 10)
	cm := RUDYPool(context.Background(), nil, nl, pl, grid, RUDYOptions{})
	for _, d := range cm.Demand {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			t.Fatal("RUDY produced NaN/Inf on flat net")
		}
	}
	// Demand concentrates in the row of bins at y=50.
	rowDemand := 0.0
	for i := 0; i < 10; i++ {
		rowDemand += cm.Demand[grid.Index(i, 5)] + cm.Demand[grid.Index(i, 4)]
	}
	if rowDemand <= 0 {
		t.Error("flat net left no demand along its row")
	}
}

func TestRUDYSkipsDegenerateAndSinglePin(t *testing.T) {
	nl := netlist.New("r")
	a := nl.MustAddCell("a", "STD", 1, 1, false)
	nl.MustAddNet("single", 1, netlist.Endpoint{Cell: a, Pin: "P", Dir: netlist.DirInput})
	// Two pins at the same location: zero HPWL → skipped.
	b := nl.MustAddCell("b", "STD", 1, 1, false)
	nl.MustAddNet("coincident", 1,
		netlist.Endpoint{Cell: a, Pin: "Q", Dir: netlist.DirInput},
		netlist.Endpoint{Cell: b, Pin: "Q", Dir: netlist.DirInput},
	)
	pl := netlist.NewPlacement(nl)
	grid := geom.NewGrid(geom.NewRect(0, 0, 10, 10), 2, 2)
	cm := RUDYPool(context.Background(), nil, nl, pl, grid, RUDYOptions{})
	for _, d := range cm.Demand {
		if d != 0 {
			t.Fatalf("degenerate nets contributed demand: %v", cm.Demand)
		}
	}
}

func TestCongestionStats(t *testing.T) {
	grid := geom.NewGrid(geom.NewRect(0, 0, 10, 10), 2, 2)
	cm := &CongestionMap{Grid: grid, Demand: []float64{0.5, 1.5, 2.0, 0.0}}
	s := cm.Stats()
	if s.Max != 2.0 {
		t.Errorf("Max = %g", s.Max)
	}
	if math.Abs(s.Mean-1.0) > 1e-12 {
		t.Errorf("Mean = %g", s.Mean)
	}
	if math.Abs(s.Overflow-1.5) > 1e-12 { // (1.5-1)+(2-1)
		t.Errorf("Overflow = %g", s.Overflow)
	}
	if s.ACE5 != 2.0 { // worst 5% of 4 bins = worst 1 bin
		t.Errorf("ACE5 = %g", s.ACE5)
	}
}

func TestCongestionStatsEmpty(t *testing.T) {
	cm := &CongestionMap{}
	if s := cm.Stats(); s.Max != 0 || s.Mean != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

func BenchmarkNetSteiner8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 8)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NetSteiner(pts)
	}
}

// parallelDesign builds a random netlist for the parallel-equality tests.
func parallelDesign(seed int64, nCells, nNets int) (*netlist.Netlist, *netlist.Placement) {
	rng := rand.New(rand.NewSource(seed))
	nl := netlist.New("par")
	for i := 0; i < nCells; i++ {
		nl.MustAddCell(fmtName("c", i), "STD", 4, 4, false)
	}
	for i := 0; i < nNets; i++ {
		deg := 2 + rng.Intn(8)
		ends := make([]netlist.Endpoint, 0, deg)
		for k := 0; k < deg; k++ {
			ends = append(ends, netlist.Endpoint{
				Cell: netlist.CellID(rng.Intn(nCells)),
				Pin:  fmtName("p", i*100+k),
			})
		}
		nl.MustAddNet(fmtName("n", i), 0.5+rng.Float64(), ends...)
	}
	pl := netlist.NewPlacement(nl)
	for i := range nl.Cells {
		pl.X[i] = rng.Float64() * 200
		pl.Y[i] = rng.Float64() * 200
	}
	return nl, pl
}

func fmtName(prefix string, i int) string {
	return prefix + string(rune('A'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('0'+(i/676)%10))
}

// TestSteinerWLParallelMatchesSerial asserts the per-net parallel Steiner
// estimate reduces to the bit-identical total at every worker count.
func TestSteinerWLParallelMatchesSerial(t *testing.T) {
	nl, pl := parallelDesign(17, 120, 250)
	want := SteinerWLPool(context.Background(), nil, nl, pl)
	for _, workers := range []int{2, 3, 8} {
		got := SteinerWLPool(context.Background(), par.New(workers), nl, pl)
		if got != want {
			t.Fatalf("workers=%d: SteinerWL = %v, serial %v", workers, got, want)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := SteinerWLPool(ctx, par.New(4), nl, pl); !math.IsNaN(got) {
		t.Fatalf("cancelled SteinerWLPool = %v, want NaN", got)
	}
}

// TestRUDYParallelMatchesSerial asserts the row-tiled parallel RUDY map is
// bit-identical to the serial one at every worker count.
func TestRUDYParallelMatchesSerial(t *testing.T) {
	nl, pl := parallelDesign(29, 150, 300)
	grid := geom.NewGrid(geom.NewRect(0, 0, 200, 200), 24, 24)
	opt := RUDYOptions{WireWidth: 1.5, Capacity: 0.3}
	want := RUDYPool(context.Background(), nil, nl, pl, grid, opt)
	for _, workers := range []int{2, 3, 8} {
		got := RUDYPool(context.Background(), par.New(workers), nl, pl, grid, opt)
		for i := range want.Demand {
			if got.Demand[i] != want.Demand[i] {
				t.Fatalf("workers=%d: bin %d = %v, serial %v",
					workers, i, got.Demand[i], want.Demand[i])
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := RUDYPool(ctx, par.New(4), nl, pl, grid, opt); got != nil {
		t.Fatal("cancelled RUDYPool returned a map, want nil")
	}
}
