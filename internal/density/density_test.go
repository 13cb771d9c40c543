package density

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/par"
)

// gridDesign builds nCells unit-square movable cells on a 100x100 core.
func gridDesign(nCells int) (*netlist.Netlist, *netlist.Placement, geom.Grid) {
	nl := netlist.New("d")
	for i := 0; i < nCells; i++ {
		nl.MustAddCell(cellName(i), "STD", 4, 4, false)
	}
	pl := netlist.NewPlacement(nl)
	return nl, pl, geom.NewGrid(geom.NewRect(0, 0, 100, 100), 10, 10)
}

func cellName(i int) string { return "c" + string(rune('a'+i%26)) + string(rune('0'+i/26)) }

func TestAddRectExactSplit(t *testing.T) {
	g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 10, 10)
	m := NewMap(g)
	// Rect straddling four bins equally.
	m.AddRect(geom.NewRect(5, 5, 15, 15))
	total := 0.0
	for _, v := range m.Bins {
		total += v
	}
	if math.Abs(total-100) > 1e-9 {
		t.Fatalf("total area = %g, want 100", total)
	}
	for _, idx := range []int{g.Index(0, 0), g.Index(1, 0), g.Index(0, 1), g.Index(1, 1)} {
		if math.Abs(m.Bins[idx]-25) > 1e-9 {
			t.Errorf("bin %d = %g, want 25", idx, m.Bins[idx])
		}
	}
}

func TestUtilization(t *testing.T) {
	nl, pl, g := gridDesign(2)
	pl.SetLoc(0, geom.Point{X: 0, Y: 0}) // wholly in bin (0,0)
	pl.SetLoc(1, geom.Point{X: 3, Y: 3}) // also bin (0,0)
	u := Utilization(nl, pl, g)
	if math.Abs(u.Bins[g.Index(0, 0)]-32.0/100) > 1e-9 {
		t.Errorf("util(0,0) = %g, want 0.32", u.Bins[g.Index(0, 0)])
	}
}

func TestOverflowZeroWhenSpread(t *testing.T) {
	nl, pl, g := gridDesign(25)
	// One 4x4 cell per bin row/col stride: 16 area per 100-area bin = 0.16.
	k := 0
	for j := 0; j < 5; j++ {
		for i := 0; i < 5; i++ {
			pl.SetLoc(netlist.CellID(k), geom.Point{X: float64(i)*20 + 3, Y: float64(j)*20 + 3})
			k++
		}
	}
	if ov := Overflow(nl, pl, g, 1.0); ov != 0 {
		t.Errorf("overflow = %g, want 0", ov)
	}
}

func TestOverflowOneWhenStacked(t *testing.T) {
	nl, pl, g := gridDesign(50)
	// All 50 cells at the origin: 800 area in one 100-area bin.
	for i := range nl.Cells {
		pl.SetLoc(netlist.CellID(i), geom.Point{X: 0, Y: 0})
	}
	ov := Overflow(nl, pl, g, 1.0)
	// 50 cells × 16 area all inside bin (0,0): 800 area in capacity 100.
	// over = 700; movable = 800 → 0.875.
	if math.Abs(ov-0.875) > 1e-9 {
		t.Errorf("overflow = %g, want 0.875", ov)
	}
}

func TestOverflowCountsFixedBlockage(t *testing.T) {
	nl := netlist.New("f")
	nl.MustAddCell("blk", "MACRO", 10, 10, true)
	nl.MustAddCell("c", "STD", 10, 10, false)
	pl := netlist.NewPlacement(nl)
	g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 10, 10)
	// Both in the same bin: blockage makes the movable cell overflow.
	pl.SetLoc(0, geom.Point{X: 0, Y: 0})
	pl.SetLoc(1, geom.Point{X: 0, Y: 0})
	ov := Overflow(nl, pl, g, 1.0)
	if math.Abs(ov-1.0) > 1e-9 {
		t.Errorf("overflow = %g, want 1.0 (bin holds 200 in cap 100, movable 100)", ov)
	}
}

func TestMaxUtilization(t *testing.T) {
	nl, pl, g := gridDesign(2)
	pl.SetLoc(0, geom.Point{X: 0, Y: 0})
	pl.SetLoc(1, geom.Point{X: 50, Y: 50})
	if got := MaxUtilization(nl, pl, g); math.Abs(got-0.16) > 1e-9 {
		t.Errorf("MaxUtilization = %g, want 0.16", got)
	}
}

func TestBellKernelShape(t *testing.T) {
	w, wb := 4.0, 10.0
	// At center: peak value 1.
	p0, d0 := bell(0, w, wb)
	if p0 != 1 || d0 != 0 {
		t.Errorf("bell(0) = %g, %g", p0, d0)
	}
	// Beyond support: zero.
	p, d := bell(w/2+2*wb+1, w, wb)
	if p != 0 || d != 0 {
		t.Errorf("bell outside support = %g, %g", p, d)
	}
	// Continuity at the knee r1 = w/2 + wb.
	r1 := w/2 + wb
	pl, _ := bell(r1-1e-9, w, wb)
	pr, _ := bell(r1+1e-9, w, wb)
	if math.Abs(pl-pr) > 1e-6 {
		t.Errorf("bell discontinuous at knee: %g vs %g", pl, pr)
	}
	// Symmetry.
	pp, dp := bell(3, w, wb)
	pn, dn := bell(-3, w, wb)
	if pp != pn || dp != -dn {
		t.Errorf("bell not even: (%g,%g) vs (%g,%g)", pp, dp, pn, dn)
	}
}

func TestBellDerivativeMatchesFD(t *testing.T) {
	w, wb := 6.0, 5.0
	for _, d := range []float64{0.5, 2, 7.9, 9, 12, 14, -3, -8.5} {
		_, got := bell(d, w, wb)
		const h = 1e-6
		fp, _ := bell(d+h, w, wb)
		fm, _ := bell(d-h, w, wb)
		fd := (fp - fm) / (2 * h)
		if math.Abs(fd-got) > 1e-4 {
			t.Errorf("bell'(%g) = %g, finite diff %g", d, got, fd)
		}
	}
}

func potentialSetup(nCells int, seed int64) (*Potential, []float64, []float64) {
	nl, pl, g := gridDesign(nCells)
	rng := rand.New(rand.NewSource(seed))
	cx := make([]float64, nCells)
	cy := make([]float64, nCells)
	for i := range cx {
		cx[i] = 10 + rng.Float64()*80
		cy[i] = 10 + rng.Float64()*80
	}
	p := NewPotential(nl, pl, g, 0.5)
	return p, cx, cy
}

func TestPotentialGradientMatchesFD(t *testing.T) {
	p, cx, cy := potentialSetup(6, 3)
	gx := make([]float64, len(cx))
	gy := make([]float64, len(cy))
	p.Value(cx, cy)
	p.Gradient(gx, gy)
	const h = 1e-5
	for i := range cx {
		orig := cx[i]
		cx[i] = orig + h
		fp := p.Value(cx, cy)
		cx[i] = orig - h
		fm := p.Value(cx, cy)
		cx[i] = orig
		fd := (fp - fm) / (2 * h)
		// The analytic gradient freezes the normalization constant, so allow
		// a few percent of slack plus an absolute tolerance.
		if math.Abs(fd-gx[i]) > 0.05*math.Abs(fd)+1.0 {
			t.Errorf("gx[%d] = %g, finite diff %g", i, gx[i], fd)
		}
	}
}

func TestPotentialDecreasesWhenSpreading(t *testing.T) {
	// All cells stacked → high N; spread evenly → low N.
	n := 16
	nl, pl, g := gridDesign(n)
	p := NewPotential(nl, pl, g, 0.5)
	cx := make([]float64, n)
	cy := make([]float64, n)
	for i := range cx {
		cx[i], cy[i] = 50, 50
	}
	stacked := p.Value(cx, cy)
	k := 0
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			cx[k] = 12.5 + 25*float64(i)
			cy[k] = 12.5 + 25*float64(j)
			k++
		}
	}
	spread := p.Value(cx, cy)
	if spread >= stacked {
		t.Errorf("spreading did not reduce potential: stacked=%g spread=%g", stacked, spread)
	}
}

func TestPotentialGradientPushesAwayFromPile(t *testing.T) {
	// A large pile of cells overloads the center bins; a probe cell offset
	// to the left of the pile must be pushed further left (down the density
	// hill), which is the force that spreads congested placements.
	n := 40
	nl, pl, g := gridDesign(n)
	p := NewPotential(nl, pl, g, 0.5)
	cx := make([]float64, n)
	cy := make([]float64, n)
	for i := range cx {
		cx[i], cy[i] = 55, 50
	}
	probe := 0
	cx[probe] = 42 // left of the pile
	gx := make([]float64, n)
	gy := make([]float64, n)
	p.Value(cx, cy)
	p.Gradient(gx, gy)
	// gx is ∂N/∂x: positive means the objective rises toward the pile, so
	// gradient descent moves the probe left, away from it.
	if gx[probe] <= 0 {
		t.Errorf("descent does not push probe away from pile: gx=%g", gx[probe])
	}
	_ = pl
}

func TestPotentialFixedBlockageReducesTarget(t *testing.T) {
	nl := netlist.New("b")
	nl.MustAddCell("blk", "MACRO", 10, 10, true)
	nl.MustAddCell("c", "STD", 4, 4, false)
	pl := netlist.NewPlacement(nl)
	pl.SetLoc(0, geom.Point{X: 0, Y: 0})
	g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 10, 10)
	p := NewPotential(nl, pl, g, 1.0)
	if got := p.target[g.Index(0, 0)]; got != 0 {
		t.Errorf("blocked bin target = %g, want 0", got)
	}
	if got := p.target[g.Index(5, 5)]; got != 100 {
		t.Errorf("free bin target = %g, want 100", got)
	}
}

func TestPotentialConservesArea(t *testing.T) {
	// The splatted density must sum to the movable area (kernel normalized)
	// for cells whose kernel support lies fully inside the region; boundary
	// cells intentionally leak (normalization uses the virtual grid).
	n := 8
	nl, _, g := gridDesign(n)
	plc := netlist.NewPlacement(nl)
	p := NewPotential(nl, plc, g, 0.5)
	rng := rand.New(rand.NewSource(5))
	cx := make([]float64, n)
	cy := make([]float64, n)
	for i := range cx {
		// Kernel radius = effSize/2 + 2*binW = 25, so keep centers in [25,75].
		cx[i] = 25 + rng.Float64()*50
		cy[i] = 25 + rng.Float64()*50
	}
	p.Value(cx, cy)
	total := 0.0
	for _, d := range p.dens {
		total += d
	}
	want := nl.MovableArea()
	if math.Abs(total-want) > 1e-6*want {
		t.Errorf("spread density total = %g, want %g", total, want)
	}
}

func BenchmarkPotentialValueGradient(b *testing.B) {
	n := 1000
	nl := netlist.New("bench")
	for i := 0; i < n; i++ {
		nl.MustAddCell(benchName(i), "STD", 2, 2, false)
	}
	pl := netlist.NewPlacement(nl)
	g := geom.NewGrid(geom.NewRect(0, 0, 200, 200), 32, 32)
	p := NewPotential(nl, pl, g, 0.8)
	rng := rand.New(rand.NewSource(1))
	cx := make([]float64, n)
	cy := make([]float64, n)
	for i := range cx {
		cx[i] = rng.Float64() * 200
		cy[i] = rng.Float64() * 200
	}
	gx := make([]float64, n)
	gy := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Value(cx, cy)
		p.Gradient(gx, gy)
	}
}

func benchName(i int) string {
	return "b" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
}

// TestPotentialParallelMatchesSerial asserts the band-tiled parallel
// evaluation is bit-identical to the serial one at several worker counts,
// with and without gradients. The second grid has 17 rows, which no band
// count here divides, and carries tall cells whose kernels span many rows
// and so straddle band edges.
func TestPotentialParallelMatchesSerial(t *testing.T) {
	for _, c := range []struct {
		ny   int
		maxH float64
	}{{16, 4}, {17, 40}} {
		rng := rand.New(rand.NewSource(5))
		nl := netlist.New("par")
		const n = 300
		for i := 0; i < n; i++ {
			h := 4.0
			if c.maxH > h && i%3 == 0 {
				h = 4 + rng.Float64()*(c.maxH-4)
			}
			nl.MustAddCell(cellName(i)+"p", "STD", 2+rng.Float64()*18, h, i%11 == 0)
		}
		pl := netlist.NewPlacement(nl)
		g := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 16, c.ny)
		cx := make([]float64, n)
		cy := make([]float64, n)
		for i := range cx {
			cx[i] = rng.Float64() * 100
			cy[i] = rng.Float64() * 100
		}

		serial := NewPotential(nl, pl, g, 0.5)
		gxS := make([]float64, n)
		gyS := make([]float64, n)
		fS := serial.Value(cx, cy)
		serial.Gradient(gxS, gyS)

		for _, workers := range []int{2, 3, 4, 8} {
			p := NewPotential(nl, pl, g, 0.5)
			p.SetParallel(par.New(workers), context.Background())
			gx := make([]float64, n)
			gy := make([]float64, n)
			if f := p.Value(cx, cy); f != fS {
				t.Fatalf("NY=%d workers=%d: N = %v, serial %v", c.ny, workers, f, fS)
			}
			for i := range p.dens {
				if p.dens[i] != serial.dens[i] {
					t.Fatalf("NY=%d workers=%d: bin %d density %v, serial %v",
						c.ny, workers, i, p.dens[i], serial.dens[i])
				}
			}
			p.Gradient(gx, gy)
			for i := range gx {
				if gx[i] != gxS[i] || gy[i] != gyS[i] {
					t.Fatalf("NY=%d workers=%d: grad[%d] = (%v,%v), serial (%v,%v)",
						c.ny, workers, i, gx[i], gy[i], gxS[i], gyS[i])
				}
			}
		}
	}
}

// TestPotentialCancelledContextPoisons asserts an expired context turns the
// objective into NaN rather than a partial sum.
func TestPotentialCancelledContextPoisons(t *testing.T) {
	nl, pl, g := gridDesign(20)
	p := NewPotential(nl, pl, g, 0.5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.SetParallel(par.New(4), ctx)
	cx := make([]float64, 20)
	cy := make([]float64, 20)
	if f := p.Value(cx, cy); !math.IsNaN(f) {
		t.Fatalf("cancelled Value returned %v, want NaN", f)
	}
}
