package density

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/par"
)

// soaProblem builds a random netlist/placement over a square core for the
// SoA kernel tests.
func soaProblem(seed int64, nCells int) (*netlist.Netlist, *netlist.Placement, geom.Grid) {
	rng := rand.New(rand.NewSource(seed))
	nl := netlist.New(fmt.Sprintf("soa%d", seed))
	for i := 0; i < nCells; i++ {
		fixed := i%23 == 0
		nl.MustAddCell(fmt.Sprintf("c%d", i), "std", 4+float64(rng.Intn(5))*2, 8, fixed)
	}
	pl := netlist.NewPlacement(nl)
	for i := range nl.Cells {
		pl.X[i] = rng.Float64() * 180
		pl.Y[i] = rng.Float64() * 180
	}
	return nl, pl, geom.NewGrid(geom.NewRect(0, 0, 200, 200), 24, 24)
}

// TestAxisTablesMatchBell checks that the filled 1-D tables agree with the
// reference bell() evaluation at every bin of the raw footprint, that the
// lazily-filled derivative tables agree on the clamped range a gradient
// pass reads, and that the separable normalization matches the definition
// area/(Σpx·Σpy).
func TestAxisTablesMatchBell(t *testing.T) {
	nl, pl, grid := soaProblem(3, 60)
	p := NewPotential(nl, pl, grid, 0.9)
	cx := make([]float64, len(nl.Cells))
	cy := make([]float64, len(nl.Cells))
	for i := range nl.Cells {
		cx[i] = pl.X[i] + nl.Cells[i].W/2
		cy[i] = pl.Y[i] + nl.Cells[i].H/2
	}
	p.Value(cx, cy)
	// Gradient triggers the lazy fillDeriv pass that writes the dp tables.
	p.Gradient(make([]float64, len(nl.Cells)), make([]float64, len(nl.Cells)))
	for mi, ci := range p.movable {
		w := effSize(nl.Cells[ci].W, grid.BinW)
		i0 := p.tabX.i0[mi]
		n := int(p.tabX.off[mi+1] - p.tabX.off[mi])
		sum := 0.0
		for k := 0; k < n; k++ {
			bi := i0 + k
			bx := grid.Region.Lo.X + (float64(bi)+0.5)*grid.BinW
			wantP, wantDP := bell(cx[ci]-bx, w, grid.BinW)
			gotP := p.tabX.p[int(p.tabX.off[mi])+k]
			// Slots beyond the raw span stay at their previous fill; only
			// in-span slots carry this evaluation's values.
			r2 := w/2 + 2*grid.BinW
			f1 := math.Ceil((cx[ci] + r2 - grid.Region.Lo.X) / grid.BinW)
			if float64(bi) >= f1 {
				continue
			}
			if gotP != wantP {
				t.Fatalf("cell %d slot %d: table %v != bell %v", ci, k, gotP, wantP)
			}
			// dp slots exist only on the clamped in-grid range.
			if bi >= p.tabX.iLo[mi] && bi < p.tabX.iHi[mi] {
				if gotDP := p.tabX.dp[int(p.tabX.off[mi])+k]; gotDP != wantDP {
					t.Fatalf("cell %d slot %d: deriv table %v != bell %v", ci, k, gotDP, wantDP)
				}
			}
			sum += wantP
		}
		if sum > 0 && p.norm[mi] == 0 {
			t.Fatalf("cell %d: nonzero x-sum but zero norm", ci)
		}
	}
}

// TestGradientBeforeValuePanics pins the misuse contract: the gradient pass
// reads tables and residuals that only a Value pass writes.
func TestGradientBeforeValuePanics(t *testing.T) {
	nl, pl, grid := soaProblem(5, 20)
	p := NewPotential(nl, pl, grid, 0.9)
	defer func() {
		if recover() == nil {
			t.Fatal("Gradient before Value did not panic")
		}
	}()
	p.Gradient(make([]float64, len(nl.Cells)), make([]float64, len(nl.Cells)))
}

// TestValueSerialMatchesBandTiled checks the one-band serial splat against
// the band-tiled parallel schedule bitwise at several worker counts.
func TestValueSerialMatchesBandTiled(t *testing.T) {
	nl, pl, grid := soaProblem(17, 200)
	cx := make([]float64, len(nl.Cells))
	cy := make([]float64, len(nl.Cells))
	for i := range nl.Cells {
		cx[i] = pl.X[i] + nl.Cells[i].W/2
		cy[i] = pl.Y[i] + nl.Cells[i].H/2
	}
	serial := NewPotential(nl, pl, grid, 0.9)
	fS := serial.Value(cx, cy)
	for _, workers := range []int{2, 3, 4} {
		p := NewPotential(nl, pl, grid, 0.9)
		p.SetParallel(par.New(workers), nil)
		if f := p.Value(cx, cy); f != fS {
			t.Fatalf("workers=%d: Value %v != serial %v", workers, f, fS)
		}
		for i := range p.dens {
			if p.dens[i] != serial.dens[i] {
				t.Fatalf("workers=%d: bin %d density %v != serial %v",
					workers, i, p.dens[i], serial.dens[i])
			}
		}
	}
}

// BenchmarkDensitySoA measures the table-driven potential: a value and its
// gradient (the start of a solve, a rollback), value alone (a line-search
// probe), and gradient-only from stored tables (an accepted iterate).
func BenchmarkDensitySoA(b *testing.B) {
	nl, pl, grid := soaProblem(7, 2000)
	cx := make([]float64, len(nl.Cells))
	cy := make([]float64, len(nl.Cells))
	for i := range nl.Cells {
		cx[i] = pl.X[i] + nl.Cells[i].W/2
		cy[i] = pl.Y[i] + nl.Cells[i].H/2
	}
	p := NewPotential(nl, pl, grid, 0.9)
	gx := make([]float64, len(nl.Cells))
	gy := make([]float64, len(nl.Cells))
	p.Value(cx, cy) // sizes the scratch outside the timed loops

	b.Run("value+grad", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Value(cx, cy)
			p.Gradient(gx, gy)
		}
	})
	b.Run("value-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Value(cx, cy)
		}
	})
	b.Run("grad-reuse", func(b *testing.B) {
		p.Value(cx, cy)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Gradient(gx, gy)
		}
	})
}
