package route

import (
	"context"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/par"
)

// TestBinOverflowAccounting drives the router into overflow and checks the
// per-bin export: the grid dimensions are recorded, OverflowBins counts
// exactly the nonzero entries, and the per-bin charges sum back to the total
// overflow (each overflowed edge is split half-and-half between its two
// endpoint bins).
func TestBinOverflowAccounting(t *testing.T) {
	var locs [][2]float64
	var nets [][]int
	n := 60
	for i := 0; i < n; i++ {
		locs = append(locs, [2]float64{2, 52}, [2]float64{97, 52})
		nets = append(nets, []int{2 * i, 2*i + 1})
	}
	nl, pl := grDesign(t, locs, nets)
	res := GlobalRouteCtx(context.Background(), nl, pl, geom.NewRect(0, 0, 100, 100),
		GRouteOptions{NX: 10, NY: 10, CapacityFactor: 0.15})
	if res.Overflow == 0 {
		t.Fatal("pinched design did not overflow; accounting is unobservable")
	}
	if res.GridNX != 10 || res.GridNY != 10 {
		t.Fatalf("grid dims (%d,%d), want (10,10)", res.GridNX, res.GridNY)
	}
	if len(res.BinOverflow) != 100 {
		t.Fatalf("BinOverflow has %d entries, want 100", len(res.BinOverflow))
	}
	sum, nonzero := 0.0, 0
	for _, v := range res.BinOverflow {
		if v < 0 {
			t.Fatalf("negative bin overflow %v", v)
		}
		if v > 0 {
			nonzero++
		}
		sum += v
	}
	if nonzero != res.OverflowBins {
		t.Fatalf("OverflowBins = %d, nonzero entries = %d", res.OverflowBins, nonzero)
	}
	if math.Abs(sum-res.Overflow) > 1e-9*res.Overflow {
		t.Fatalf("per-bin overflow sums to %v, total is %v", sum, res.Overflow)
	}
}

// TestBinOverflowAbsentWhenClean checks a design without overflow exports an
// all-zero map and zero bin count.
func TestBinOverflowAbsentWhenClean(t *testing.T) {
	nl, pl := grDesign(t, [][2]float64{{5, 5}, {85, 45}}, [][]int{{0, 1}})
	res := GlobalRouteCtx(context.Background(), nl, pl, geom.NewRect(0, 0, 100, 50), GRouteOptions{NX: 20, NY: 10})
	if res.Overflow != 0 {
		t.Fatalf("single net overflowed: %v", res.Overflow)
	}
	if res.OverflowBins != 0 {
		t.Fatalf("OverflowBins = %d on a clean route", res.OverflowBins)
	}
	for idx, v := range res.BinOverflow {
		if v != 0 {
			t.Fatalf("bin %d charged %v on a clean route", idx, v)
		}
	}
}

// TestEstimatorMatchesRUDYPool checks the reusable estimator against the
// one-shot computation bitwise, including after the scratch has been dirtied
// by a snapshot at different coordinates — the reuse must not leak state
// between snapshots.
func TestEstimatorMatchesRUDYPool(t *testing.T) {
	var locs [][2]float64
	var nets [][]int
	for i := 0; i < 40; i++ {
		locs = append(locs, [2]float64{float64(2 + i), 30}, [2]float64{float64(60 + i%20), 70})
		nets = append(nets, []int{2 * i, 2*i + 1})
	}
	nl, pl := grDesign(t, locs, nets)
	grid := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 12, 12)
	opt := RUDYOptions{Capacity: 0.15}
	pool := par.New(3)
	ctx := context.Background()

	want := RUDYPool(ctx, pool, nl, pl, grid, opt)
	est := NewEstimator(nl, grid, opt)
	got := est.Snapshot(ctx, pool, pl)
	for i := range want.Demand {
		if got.Demand[i] != want.Demand[i] {
			t.Fatalf("bin %d: estimator %v != RUDYPool %v", i, got.Demand[i], want.Demand[i])
		}
	}

	// Dirty the scratch with a shifted placement, then return and re-snapshot.
	for i := range pl.X {
		pl.X[i] += 17
	}
	est.Snapshot(ctx, pool, pl)
	for i := range pl.X {
		pl.X[i] -= 17
	}
	again := est.Snapshot(ctx, pool, pl)
	for i := range want.Demand {
		if again.Demand[i] != want.Demand[i] {
			t.Fatalf("bin %d after reuse: estimator %v != RUDYPool %v",
				i, again.Demand[i], want.Demand[i])
		}
	}

	// An expired context yields nil, matching RUDYPool.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if est.Snapshot(expired, pool, pl) != nil {
		t.Fatal("snapshot under an expired context returned a map")
	}
}
