package global

import (
	"context"
	"fmt"
	"math/rand"
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
		e.refresh(v)
		e.evalWL(true)
		wantX, wantY := scatterInNetOrder(e)
		for c := range wantX {
			if e.gxFull[c] != wantX[c] || e.gyFull[c] != wantY[c] {
				t.Fatalf("workers=%d cell %d: gather (%v,%v), net-order scatter (%v,%v)",
					workers, c, e.gxFull[c], e.gyFull[c], wantX[c], wantY[c])
			}
		}
	}
}

// testEngine builds a fresh engine at γ=4 ready for eval, mirroring the
// state the solver sees mid-schedule.
func testEngine(nl *netlist.Netlist, pl *netlist.Placement, core *geom.Core, o Options) *engine {
	e := newEngine(nl, pl, core, o)
	e.setGamma(4)
	return e
}

// evalAt runs one objective+gradient evaluation of a fresh engine with the
// given worker count and returns the objective and the gradient vector.
func evalAt(nl *netlist.Netlist, pl *netlist.Placement, core *geom.Core, o Options, lambda float64, noReuse bool) (float64, []float64, []float64) {
	e := testEngine(nl, pl, core, o)
	e.lambda = lambda
	v := make([]float64, e.nVars)
	e.initVars(v)
	grad := make([]float64, e.nVars)
	e.noReuse = noReuse
	f := e.eval(v, grad)
	return f, grad, v
}

// TestParallelGradientMatchesSerial is the property test behind the
// engine's determinism claim: across random netlists and worker counts, the
// objective and every gradient component of the parallel evaluation equal
// the serial evaluation bit-for-bit — with and without incremental reuse.
// Seeds 1–5 are plain random netlists; seed 6 is gatherProblem, with pads,
// degree-1 nets, repeated pins and hard-alignment groups.
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
		fSer, gSer, _ := evalAt(nl, pl, core, Options{Workers: 1, Groups: groups}, 0.7, false)
		for _, workers := range []int{2, 3, 4, 8} {
			for _, noReuse := range []bool{false, true} {
				f, g, _ := evalAt(nl, pl, core, Options{Workers: workers, Groups: groups}, 0.7, noReuse)
				if f != fSer {
					t.Fatalf("seed %d workers %d noReuse=%v: objective %v != serial %v",
						seed, workers, noReuse, f, fSer)
				}
				for i := range g {
					if g[i] != gSer[i] {
						t.Fatalf("seed %d workers %d noReuse=%v: grad[%d] %v != serial %v",
							seed, workers, noReuse, i, g[i], gSer[i])
					}
				}
			}
		}
	}
}

// TestDeltaReuseIsExact verifies an all-clean re-evaluation returns the
// bit-identical objective and gradient without recomputing any net, that
// reuse actually happens, and that a γ change dirties every net again.
func TestDeltaReuseIsExact(t *testing.T) {
	nl, pl, core := randProblem(42, 150, 200)
	e := testEngine(nl, pl, core, Options{Workers: 2})
	e.lambda = 0.5
	v := make([]float64, e.nVars)
	e.initVars(v)
	g1 := make([]float64, e.nVars)
	f1 := e.eval(v, g1)
	recomps := e.netRecomps
	if recomps == 0 {
		t.Fatal("cold evaluation recomputed no nets")
	}

	g2 := make([]float64, e.nVars)
	f2 := e.eval(v, g2)
	if f2 != f1 {
		t.Fatalf("reused objective %v != original %v", f2, f1)
	}
	for i := range g1 {
		if g2[i] != g1[i] {
			t.Fatalf("reused grad[%d] %v != original %v", i, g2[i], g1[i])
		}
	}
	if e.netReuses == 0 {
		t.Fatal("repeated evaluation at the same point reused no nets")
	}
	if e.netRecomps != recomps {
		t.Fatalf("repeated evaluation recomputed %d nets",
			e.netRecomps-recomps)
	}

	// γ change: every net must be re-evaluated.
	e.setGamma(2)
	g3 := make([]float64, e.nVars)
	e.eval(v, g3)
	if e.netRecomps != 2*recomps {
		t.Fatalf("γ change did not dirty every net: %d recomputes, want %d",
			e.netRecomps, 2*recomps)
	}
}

// TestPlaceWorkersBitIdentical runs the full global placement at several
// worker counts and requires bit-identical placements.
func TestPlaceWorkersBitIdentical(t *testing.T) {
	base := func(workers int) *netlist.Placement {
		nl, pl, core := randProblem(7, 260, 380)
		_, err := Place(nl, pl, core, Options{
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
// one.
func TestEvalCancellationPoisons(t *testing.T) {
	nl, pl, core := randProblem(3, 80, 100)
	e := testEngine(nl, pl, core, Options{Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.ctx = ctx
	e.pot.SetParallel(e.pool, ctx)
	v := make([]float64, e.nVars)
	e.initVars(v)
	g := make([]float64, e.nVars)
	if f := e.eval(v, g); f == f { // NaN != NaN
		t.Fatalf("cancelled evaluation returned finite %v, want NaN", f)
	}
}

// TestRefreshCompletesUnderCancelledContext runs an evaluation under an
// expired run context (it is poisoned), then the same gradient evaluation
// under a live one: the second result must equal a fresh engine's at that
// point. In the cold and moved cases the cancelled evaluation is at a point
// that moves every variable — the engine's first evaluation, or one after
// the start point was evaluated — so the coordinate refresh must finish
// even though its parallel pass shares the pool with the cancelled kernels;
// otherwise the coordinates would lag vPrev and nothing would repair them.
// In the gradient-only case a live value-only evaluation at the point comes
// first, so the cancelled evaluation runs only the gradient passes, which
// must leave both gradient caches marked stale.
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
				e.eval(v, g)
			case "gradient-only":
				e.eval(v, nil)
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
			if f := e.eval(v, g); f == f { // NaN != NaN
				t.Fatalf("workers=%d %s: cancelled evaluation returned finite %v", workers, kind, f)
			}

			e.ctx = context.Background()
			e.pot.SetParallel(e.pool, e.ctx)
			f := e.eval(v, g)
			ref := testEngine(nl, pl, core, Options{Workers: workers})
			ref.lambda = 0.5
			gRef := make([]float64, e.nVars)
			fRef := ref.eval(v, gRef)
			if f != fRef {
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

// BenchmarkEvalWorkers measures one full objective+gradient evaluation at
// several worker counts (the benchmark in bench/ reports the whole-flow
// speedup as global.parallel_speedup).
func BenchmarkEvalWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			nl, pl, core := randProblem(9, 400, 600)
			e := testEngine(nl, pl, core, Options{Workers: workers})
			e.lambda = 0.5
			e.noReuse = true
			v := make([]float64, e.nVars)
			e.initVars(v)
			g := make([]float64, e.nVars)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.eval(v, g)
			}
		})
	}
}
