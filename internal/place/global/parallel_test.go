package global

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// randProblem builds a random netlist, placement and core for the parallel
// equality property tests: a mix of movable cells, a few fixed pads, and
// nets of varying degree (including high-degree buses that stress the
// sharded evaluator).
func randProblem(seed int64, nCells, nNets int) (*netlist.Netlist, *netlist.Placement, *geom.Core) {
	rng := rand.New(rand.NewSource(seed))
	nl := netlist.New(fmt.Sprintf("rand%d", seed))
	for i := 0; i < nCells; i++ {
		fixed := i%17 == 0
		w := 4 + float64(rng.Intn(4))*2
		nl.MustAddCell(fmt.Sprintf("c%d", i), "std", w, 8, fixed)
	}
	for i := 0; i < nNets; i++ {
		deg := 2 + rng.Intn(9)
		if i%13 == 0 {
			deg = 2 + rng.Intn(30) // occasional wide bus
		}
		ends := make([]netlist.Endpoint, 0, deg)
		for k := 0; k < deg; k++ {
			c := netlist.CellID(rng.Intn(nCells))
			ends = append(ends, netlist.Endpoint{
				Cell: c,
				Pin:  fmt.Sprintf("p%d_%d", i, k),
				DX:   float64(rng.Intn(4)),
				DY:   float64(rng.Intn(4)),
			})
		}
		nl.MustAddNet(fmt.Sprintf("n%d", i), 1, ends...)
	}
	core := geom.NewCore(geom.NewRect(0, 0, 400, 400), 8, 1)
	pl := netlist.NewPlacement(nl)
	for i := range nl.Cells {
		pl.X[i] = rng.Float64() * 380
		pl.Y[i] = rng.Float64() * 380
	}
	return nl, pl, core
}

// gatherProblem extends randProblem with every pin shape the gradient
// gather must get right: pad pins (no cell), degree-1 nets (skipped), a
// cell with two pins on one net, non-unit net weights, and hard-alignment
// groups, whose cells share one variable per column. It returns the
// groups alongside the problem.
func gatherProblem(seed int64) (*netlist.Netlist, *netlist.Placement, *geom.Core, []AlignGroup) {
	nl, pl, core := randProblem(seed, 150, 180)
	rng := rand.New(rand.NewSource(seed + 100))
	for i := 0; i < 40; i++ {
		a := netlist.CellID(rng.Intn(150))
		b := netlist.CellID(rng.Intn(150))
		ends := []netlist.Endpoint{
			{Cell: a, Pin: fmt.Sprintf("ga%d", i), DX: 1},
			{Cell: a, Pin: fmt.Sprintf("gb%d", i), DX: 3, DY: 2}, // two pins of a on one net
			{Cell: netlist.NoCell, Pin: fmt.Sprintf("pad%d", i), DX: rng.Float64() * 400, DY: rng.Float64() * 400},
			{Cell: b, Pin: fmt.Sprintf("gc%d", i), DY: 1},
		}
		nl.MustAddNet(fmt.Sprintf("g%d", i), 0.5+rng.Float64()*3, ends...)
		// A degree-1 net: the engine skips it everywhere.
		nl.MustAddNet(fmt.Sprintf("d%d", i), 2, netlist.Endpoint{
			Cell: netlist.CellID(rng.Intn(150)), Pin: fmt.Sprintf("d%d", i),
		})
	}
	// Two hard-alignment groups over movable cells: 4×6 and 3×5 bits.
	next := 1
	take := func() netlist.CellID {
		for nl.Cells[next].Fixed {
			next++
		}
		next++
		return netlist.CellID(next - 1)
	}
	var groups []AlignGroup
	for _, shape := range [][2]int{{4, 6}, {3, 5}} {
		g := AlignGroup{}
		for col := 0; col < shape[0]; col++ {
			var bits []netlist.CellID
			for b := 0; b < shape[1]; b++ {
				bits = append(bits, take())
			}
			g.Cols = append(g.Cols, bits)
		}
		groups = append(groups, g)
	}
	return nl, pl, core, groups
}

// scatterInNetOrder is the serial reduction the gradient gather replaced:
// walk the nets in order and add each pin's weighted gradient onto its
// cell. It is the oracle the gather is compared against.
func scatterInNetOrder(e *engine) (gx, gy []float64) {
	gx = make([]float64, len(e.gxFull))
	gy = make([]float64, len(e.gyFull))
	for ni := range e.netWeight {
		off, end := int(e.netOff[ni]), int(e.netOff[ni+1])
		if end-off < 2 {
			continue
		}
		w := e.netWeight[ni]
		for k := off; k < end; k++ {
			c := e.pinCell[k]
			if c < 0 || e.xVar[c] < 0 {
				continue
			}
			gx[c] += w * e.pinGX[k]
			gy[c] += w * e.pinGY[k]
		}
	}
	return gx, gy
}

// TestGatherMatchesNetOrderScatter compares the per-cell gradient gather
// against the serial net-order scatter bitwise, at several worker counts,
// on a problem with pads, degree-1 nets, repeated pins and hard groups.
func TestGatherMatchesNetOrderScatter(t *testing.T) {
	nl, pl, core, groups := gatherProblem(11)
	for _, workers := range []int{1, 2, 3, 4, 8} {
		e := testEngine(nl, pl, core, Options{Workers: workers, Groups: groups})
		if !e.hard {
			t.Fatal("groups did not switch the engine to hard alignment")
		}
		v := make([]float64, e.nVars)
		e.initVars(v)
		e.Value(v) // at λ = α = 0 the per-cell gradient is the wirelength's
		e.cellGradient()
		wantX, wantY := scatterInNetOrder(e)
		for c := range wantX {
			if e.gxFull[c] != wantX[c] || e.gyFull[c] != wantY[c] {
				t.Fatalf("workers=%d cell %d: gather (%v,%v), net-order scatter (%v,%v)",
					workers, c, e.gxFull[c], e.gyFull[c], wantX[c], wantY[c])
			}
		}
	}
}

// testEngine builds a fresh engine at γ=4 ready for Value, mirroring the
// state the solver sees mid-schedule.
func testEngine(nl *netlist.Netlist, pl *netlist.Placement, core *geom.Core, o Options) *engine {
	e := newEngine(nl, pl, core, o)
	e.gamma = 4
	return e
}

// evalAt runs one Value and Gradient of a fresh engine with the given
// worker count and returns the objective and the gradient vector.
func evalAt(nl *netlist.Netlist, pl *netlist.Placement, core *geom.Core, o Options, lambda float64) (float64, []float64) {
	e := testEngine(nl, pl, core, o)
	e.lambda = lambda
	v := make([]float64, e.nVars)
	e.initVars(v)
	grad := make([]float64, e.nVars)
	f := e.Value(v)
	e.Gradient(grad)
	return f, grad
}

// TestParallelGradientMatchesSerial is the property test behind the
// engine's determinism claim: across random netlists and worker counts, the
// objective and every gradient component of the parallel evaluation equal
// the serial evaluation bit-for-bit. Seeds 1–5 are plain random netlists;
// seed 6 is gatherProblem, with pads, degree-1 nets, repeated pins and
// hard-alignment groups.
func TestParallelGradientMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		var nl *netlist.Netlist
		var pl *netlist.Placement
		var core *geom.Core
		var groups []AlignGroup
		if seed <= 5 {
			nl, pl, core = randProblem(seed, 60+int(seed)*37, 80+int(seed)*53)
		} else {
			nl, pl, core, groups = gatherProblem(seed)
		}
		fSer, gSer := evalAt(nl, pl, core, Options{Workers: 1, Groups: groups}, 0.7)
		for _, workers := range []int{2, 3, 4, 8} {
			f, g := evalAt(nl, pl, core, Options{Workers: workers, Groups: groups}, 0.7)
			if f != fSer {
				t.Fatalf("seed %d workers %d: objective %v != serial %v", seed, workers, f, fSer)
			}
			for i := range g {
				if g[i] != gSer[i] {
					t.Fatalf("seed %d workers %d: grad[%d] %v != serial %v",
						seed, workers, i, g[i], gSer[i])
				}
			}
		}
	}
}

// TestDeltaReuseIsExact verifies that the gradient pass, which reuses the
// exponentials and density tables the last value pass stored, is exact
// replay: a gradient taken twice returns the same bits; valuing a point
// again after probing another, with no gradient in between, returns the
// first objective and gradient; and a γ change reaches the next value pass,
// while γ restored returns the first bits again.
func TestDeltaReuseIsExact(t *testing.T) {
	nl, pl, core := randProblem(42, 150, 200)
	e := testEngine(nl, pl, core, Options{Workers: 2})
	e.lambda = 0.5
	v := make([]float64, e.nVars)
	e.initVars(v)
	f1 := e.Value(v)
	g1 := make([]float64, e.nVars)
	e.Gradient(g1)
	same := func(what string, f float64, g []float64) {
		t.Helper()
		if f != f1 {
			t.Fatalf("%s: objective %v != first %v", what, f, f1)
		}
		for i := range g1 {
			if g[i] != g1[i] {
				t.Fatalf("%s: grad[%d] %v != first %v", what, i, g[i], g1[i])
			}
		}
	}
	g := make([]float64, e.nVars)
	e.Gradient(g)
	same("second gradient", f1, g)

	// A value-only probe elsewhere, then the first point again.
	w := append([]float64(nil), v...)
	for i := 0; i < len(w); i += 3 {
		w[i] += 1.5
	}
	if e.Value(w) == f1 {
		t.Fatal("probe point has the first objective; test proves nothing")
	}
	f := e.Value(v)
	e.Gradient(g)
	same("revalued point", f, g)

	// γ change: the next value pass computes new exponentials.
	e.gamma = 2
	f = e.Value(v)
	e.Gradient(g)
	if f == f1 {
		t.Fatalf("γ change left the objective at %v", f)
	}
	if slices.Equal(g, g1) {
		t.Fatal("γ change left the gradient unchanged")
	}
	e.gamma = 4
	f = e.Value(v)
	e.Gradient(g)
	same("γ restored", f, g)
}

// TestPlaceWorkersBitIdentical runs the full global placement at several
// worker counts and requires bit-identical placements.
func TestPlaceWorkersBitIdentical(t *testing.T) {
	base := func(workers int) *netlist.Placement {
		nl, pl, core := randProblem(7, 260, 380)
		_, err := PlaceCtx(context.Background(), nl, pl, core, Options{
			MaxOuterIters: 6, InnerIters: 20, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	ref := base(1)
	for _, workers := range []int{2, 4} {
		got := base(workers)
		for i := range ref.X {
			if got.X[i] != ref.X[i] || got.Y[i] != ref.Y[i] {
				t.Fatalf("workers=%d: cell %d at (%v,%v), workers=1 at (%v,%v)",
					workers, i, got.X[i], got.Y[i], ref.X[i], ref.Y[i])
			}
		}
	}
}

// TestEvalCancellationPoisons verifies an expired context inside the
// parallel kernels yields a NaN objective instead of a silently truncated
// one, and a NaN gradient after it.
func TestEvalCancellationPoisons(t *testing.T) {
	nl, pl, core := randProblem(3, 80, 100)
	e := testEngine(nl, pl, core, Options{Workers: 4})
	e.lambda = 0.5
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.ctx = ctx
	e.pot.SetParallel(e.pool, ctx)
	v := make([]float64, e.nVars)
	e.initVars(v)
	if f := e.Value(v); f == f { // NaN != NaN
		t.Fatalf("cancelled Value returned finite %v, want NaN", f)
	}
	g := make([]float64, e.nVars)
	e.Gradient(g)
	for i, gi := range g {
		if gi == gi {
			t.Fatalf("grad[%d] = %v after a cancelled Value, want NaN", i, gi)
		}
	}
}

// TestRefreshCompletesUnderCancelledContext runs an evaluation under an
// expired run context, then one under a live context, which must equal a
// fresh engine's at that point. In the cold and moved cases the cancelled
// Value is at a point that moves every variable — on a fresh engine, or one
// that already evaluated the start point — and the Gradient after it reads
// no state that Value left unfinished: the density potential panics on a
// Gradient after an unfinished Value. The live Value and Gradient follow.
// In the gradient-only case a live Value comes first, so the cancelled call
// is a Gradient, whose partial passes the live Gradient after it must
// redo in full.
func TestRefreshCompletesUnderCancelledContext(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, kind := range []string{"cold", "moved", "gradient-only"} {
			nl, pl, core := randProblem(13, 160, 210)
			e := testEngine(nl, pl, core, Options{Workers: workers})
			e.lambda = 0.5
			v := make([]float64, e.nVars)
			e.initVars(v)
			g := make([]float64, e.nVars)
			switch kind {
			case "moved":
				e.Value(v)
				e.Gradient(g)
			case "gradient-only":
				e.Value(v)
			}
			if kind != "gradient-only" {
				for i := range v { // move every variable off the placement
					v[i] += 0.37 + float64(i%5)*0.11
				}
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			e.ctx = ctx
			e.pot.SetParallel(e.pool, ctx)
			if kind != "gradient-only" {
				if f := e.Value(v); f == f { // NaN != NaN
					t.Fatalf("workers=%d %s: cancelled Value returned finite %v", workers, kind, f)
				}
			}
			e.Gradient(g)
			if g[0] == g[0] {
				t.Fatalf("workers=%d %s: cancelled evaluation left a finite gradient %v", workers, kind, g[0])
			}

			e.ctx = context.Background()
			e.pot.SetParallel(e.pool, e.ctx)
			var f float64
			if kind != "gradient-only" {
				f = e.Value(v)
			}
			e.Gradient(g)
			ref := testEngine(nl, pl, core, Options{Workers: workers})
			ref.lambda = 0.5
			gRef := make([]float64, e.nVars)
			fRef := ref.Value(v)
			ref.Gradient(gRef)
			if kind != "gradient-only" && f != fRef {
				t.Fatalf("workers=%d %s: objective after cancellation %v != fresh engine %v", workers, kind, f, fRef)
			}
			for i := range g {
				if g[i] != gRef[i] {
					t.Fatalf("workers=%d %s: grad[%d] %v != fresh engine %v", workers, kind, i, g[i], gRef[i])
				}
			}
		}
	}
}

// BenchmarkEvalWorkers measures one Value and Gradient at several worker
// counts (the benchmark in bench/ reports the whole-flow speedup as
// global.parallel_speedup).
func BenchmarkEvalWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			nl, pl, core := randProblem(9, 400, 600)
			e := testEngine(nl, pl, core, Options{Workers: workers})
			e.lambda = 0.5
			v := make([]float64, e.nVars)
			e.initVars(v)
			g := make([]float64, e.nVars)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Value(v)
				e.Gradient(g)
			}
		})
	}
}
