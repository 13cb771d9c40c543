package congestion

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/route"
)

// congProblem builds a netlist of 2-pin nets with every cell pinched into the
// lower-left quadrant of the grid, so a RUDY snapshot sees a genuinely hot
// tail (demand well above the quantile threshold) next to empty bins.
func congProblem(seed int64, nCells, nNets int) (*netlist.Netlist, *netlist.Placement, geom.Grid) {
	rng := rand.New(rand.NewSource(seed))
	nl := netlist.New(fmt.Sprintf("cong%d", seed))
	for i := 0; i < nCells; i++ {
		fixed := i%19 == 0
		nl.MustAddCell(fmt.Sprintf("c%d", i), "std", 4, 8, fixed)
	}
	for i := 0; i < nNets; i++ {
		a := rng.Intn(nCells)
		b := rng.Intn(nCells)
		if a == b {
			b = (b + 1) % nCells
		}
		nl.MustAddNet(fmt.Sprintf("n%d", i), 1,
			netlist.Endpoint{Cell: netlist.CellID(a), Pin: fmt.Sprintf("pa%d", i)},
			netlist.Endpoint{Cell: netlist.CellID(b), Pin: fmt.Sprintf("pb%d", i)})
	}
	pl := netlist.NewPlacement(nl)
	for i := range nl.Cells {
		pl.X[i] = rng.Float64() * 60
		pl.Y[i] = rng.Float64() * 60
	}
	return nl, pl, geom.NewGrid(geom.NewRect(0, 0, 200, 200), 16, 16)
}

func TestNewDisabledReturnsNil(t *testing.T) {
	nl, _, grid := congProblem(1, 40, 50)
	if New(nl, grid, Options{}) != nil {
		t.Fatal("New with Enable=false returned a controller")
	}
	var c *Controller
	if c.Due(4, 0) {
		t.Fatal("nil controller reported Due")
	}
}

func TestDueSchedule(t *testing.T) {
	nl, _, grid := congProblem(2, 40, 50)
	c := New(nl, grid, Options{Enable: true}) // defaults: interval 2, MaxDensOverflow 0.35
	if c.Due(0, 0.1) {
		t.Error("outer 0 fired without SnapshotOnEntry")
	}
	if !c.Due(2, 0.1) {
		t.Error("interval boundary did not fire")
	}
	if c.Due(3, 0.1) {
		t.Error("off-interval iteration fired")
	}
	if c.Due(2, 0.5) {
		t.Error("immature placement (density overflow above the gate) fired")
	}
	entry := New(nl, grid, Options{Enable: true, SnapshotOnEntry: true})
	if !entry.Due(0, 0.1) {
		t.Error("SnapshotOnEntry did not fire at outer 0")
	}
}

// TestInflationMonotoneCapped is the schedule's core property: across
// snapshots of an evolving placement every per-cell scale is non-decreasing,
// never exceeds MaxInflate, and fixed cells stay exactly 1.
func TestInflationMonotoneCapped(t *testing.T) {
	nl, pl, grid := congProblem(3, 300, 500)
	const maxInf = 1.3
	c := New(nl, grid, Options{Enable: true, MaxInflate: maxInf, CoolDown: 100})
	pool := par.New(2)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	prev := append([]float64(nil), c.Scale()...)
	for s := 0; s < 6; s++ {
		c.Snapshot(ctx, pool, pl)
		cur := c.Scale()
		for i := range cur {
			if cur[i] < prev[i] {
				t.Fatalf("snapshot %d: cell %d scale shrank %v -> %v", s, i, prev[i], cur[i])
			}
			if cur[i] > maxInf {
				t.Fatalf("snapshot %d: cell %d scale %v exceeds cap %v", s, i, cur[i], maxInf)
			}
			if nl.Cells[i].Fixed && cur[i] != 1 {
				t.Fatalf("snapshot %d: fixed cell %d inflated to %v", s, i, cur[i])
			}
		}
		copy(prev, cur)
		for i := range nl.Cells {
			pl.X[i] += (rng.Float64() - 0.5) * 4
			pl.Y[i] += (rng.Float64() - 0.5) * 4
		}
	}
	st := c.Stats()
	if st.Snapshots != 6 {
		t.Fatalf("Snapshots = %d, want 6", st.Snapshots)
	}
	if st.InflatedCells == 0 {
		t.Fatal("pinched placement inflated no cells")
	}
	if st.MaxInflation > maxInf {
		t.Fatalf("MaxInflation %v exceeds cap %v", st.MaxInflation, maxInf)
	}
	if len(st.Overflow) != 6 {
		t.Fatalf("Overflow trajectory has %d entries, want 6", len(st.Overflow))
	}
}

// TestSnapshotDeterministicAcrossWorkers requires bit-identical inflation
// state and stats regardless of the worker count driving the RUDY snapshot.
func TestSnapshotDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *Controller {
		nl, pl, grid := congProblem(4, 260, 420)
		c := New(nl, grid, Options{Enable: true, CoolDown: 100})
		pool := par.New(workers)
		rng := rand.New(rand.NewSource(5))
		for s := 0; s < 4; s++ {
			c.Snapshot(context.Background(), pool, pl)
			for i := range nl.Cells {
				pl.X[i] += (rng.Float64() - 0.5) * 6
				pl.Y[i] += (rng.Float64() - 0.5) * 6
			}
		}
		return c
	}
	ref := run(1)
	refSt := ref.Stats()
	for _, workers := range []int{2, 4} {
		got := run(workers)
		for i, s := range got.Scale() {
			if s != ref.Scale()[i] {
				t.Fatalf("workers=%d: cell %d scale %v != serial %v", workers, i, s, ref.Scale()[i])
			}
		}
		st := got.Stats()
		if st.Snapshots != refSt.Snapshots || st.Applied != refSt.Applied ||
			st.InflatedCells != refSt.InflatedCells || st.MaxInflation != refSt.MaxInflation {
			t.Fatalf("workers=%d: stats %+v != serial %+v", workers, st, refSt)
		}
		for i := range st.Overflow {
			if st.Overflow[i] != refSt.Overflow[i] {
				t.Fatalf("workers=%d: overflow[%d] %v != serial %v",
					workers, i, st.Overflow[i], refSt.Overflow[i])
			}
		}
	}
}

// TestCoolDownFreezes pins the stop condition: a placement that never
// improves its RUDY overflow freezes the schedule after CoolDown stagnant
// snapshots, and a frozen controller is never Due again.
func TestCoolDownFreezes(t *testing.T) {
	nl, pl, grid := congProblem(5, 200, 400)
	c := New(nl, grid, Options{Enable: true, CoolDown: 2})
	pool := par.New(1)
	ctx := context.Background()
	c.Snapshot(ctx, pool, pl) // establishes bestOverflow
	c.Snapshot(ctx, pool, pl) // stagnant once
	if changed := c.Snapshot(ctx, pool, pl); changed {
		t.Error("freezing snapshot still applied inflation")
	}
	st := c.Stats()
	if st.FrozenAtSnapshot != 3 {
		t.Fatalf("FrozenAtSnapshot = %d, want 3", st.FrozenAtSnapshot)
	}
	if c.Due(4, 0) {
		t.Error("frozen controller reported Due")
	}
}

// TestSnapshotCancelledContext checks an expired context leaves the schedule
// untouched.
func TestSnapshotCancelledContext(t *testing.T) {
	nl, pl, grid := congProblem(7, 100, 150)
	c := New(nl, grid, Options{Enable: true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if c.Snapshot(ctx, par.New(2), pl) {
		t.Error("cancelled snapshot reported a change")
	}
	if st := c.Stats(); st.Applied != 0 || st.InflatedCells != 0 {
		t.Fatalf("cancelled snapshot mutated stats: %+v", st)
	}
	for i, s := range c.Scale() {
		if s != 1 {
			t.Fatalf("cancelled snapshot inflated cell %d to %v", i, s)
		}
	}
}

// TestHotThresholdFloorsTheQuantile pins hotThreshold at 1.0. One short net
// in an otherwise empty grid puts the 0.92 demand quantile at 0, so the
// absolute floor alone decides which bins are hot: a bin at demand 1.05,
// just over capacity, is hot and its cells inflate.
func TestHotThresholdFloorsTheQuantile(t *testing.T) {
	nl := netlist.New("floor")
	a := nl.MustAddCell("a", "std", 2, 2, false)
	b := nl.MustAddCell("b", "std", 2, 2, false)
	nl.MustAddNet("n", 1, netlist.Endpoint{Cell: a, Pin: "Y"}, netlist.Endpoint{Cell: b, Pin: "A"})
	pl := netlist.NewPlacement(nl)
	pl.X[a], pl.Y[a] = 42, 42
	pl.X[b], pl.Y[b] = 46, 46
	grid := geom.NewGrid(geom.NewRect(0, 0, 100, 100), 10, 10)
	pool := par.New(1)
	ctx := context.Background()

	// Demand scales as 1/Capacity: probe at capacity 1, then pick the
	// capacity that puts the net's bin at 1.05.
	probe := route.NewEstimator(nl, grid, route.RUDYOptions{WireWidth: 1, Capacity: 1}).Snapshot(ctx, pool, pl)
	peak, hot := 0.0, 0
	for _, d := range probe.Demand {
		peak = max(peak, d)
		if d > 0 {
			hot++
		}
	}
	if hot != 1 {
		t.Fatalf("the net covers %d bins, want 1", hot)
	}
	c := New(nl, grid, Options{Enable: true, Capacity: peak / 1.05})
	if !c.Snapshot(ctx, pool, pl) {
		t.Fatal("a bin at demand 1.05 inflated nothing; the hot floor is above it")
	}
	for _, id := range []netlist.CellID{a, b} {
		if s := c.Scale()[id]; !(s > 1) {
			t.Errorf("cell %d in the hot bin has scale %v", id, s)
		}
	}
}
