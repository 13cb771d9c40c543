package global

import (
	"context"
	"testing"

	"repro/internal/netlist"
	"repro/internal/place/congestion"
)

// congPlace runs a full global placement over the shared random problem with
// the given options and returns the placement and result.
func congPlace(t *testing.T, o Options) (*netlist.Placement, Result) {
	t.Helper()
	nl, pl, core := randProblem(11, 240, 360)
	res, err := PlaceCtx(context.Background(), nl, pl, core, o)
	if err != nil {
		t.Fatal(err)
	}
	return pl, res
}

// TestPlaceCongestionWorkersBitIdentical is the feedback loop's determinism
// gate: with congestion on and actually firing, full global placements at
// workers 1/2/4 must be bit-identical, and the controller stats must agree.
func TestPlaceCongestionWorkersBitIdentical(t *testing.T) {
	opts := func(workers int) Options {
		return Options{
			MaxOuterIters: 8, InnerIters: 20, Workers: workers,
			Congestion: congestion.Options{
				Enable:          true,
				SnapshotOnEntry: true,
				// Open the maturity gate and drop the RUDY capacity so the
				// small random design is unambiguously congested — the test
				// is about determinism of the engaged loop, not tuning.
				MaxDensOverflow: 100,
				Capacity:        0.02,
			},
		}
	}
	refPl, refRes := congPlace(t, opts(1))
	st := refRes.Congestion
	if st == nil {
		t.Fatal("congestion enabled but Result.Congestion is nil")
	}
	if st.Snapshots == 0 {
		t.Fatal("congestion loop never fired")
	}
	if st.InflatedCells == 0 {
		t.Fatal("congested design inflated no cells")
	}
	for _, workers := range []int{2, 4} {
		gotPl, gotRes := congPlace(t, opts(workers))
		for i := range refPl.X {
			if gotPl.X[i] != refPl.X[i] || gotPl.Y[i] != refPl.Y[i] {
				t.Fatalf("workers=%d: cell %d at (%v,%v), workers=1 at (%v,%v)",
					workers, i, gotPl.X[i], gotPl.Y[i], refPl.X[i], refPl.Y[i])
			}
		}
		gst := gotRes.Congestion
		if gst.Snapshots != st.Snapshots || gst.Applied != st.Applied ||
			gst.InflatedCells != st.InflatedCells || gst.MaxInflation != st.MaxInflation {
			t.Fatalf("workers=%d: congestion stats %+v != serial %+v", workers, gst, st)
		}
	}
}

// TestPlaceCongestionGatedIsInert checks the hook itself perturbs nothing: a
// controller that exists but whose maturity gate never opens must leave the
// placement bit-identical to a run with the loop off entirely.
func TestPlaceCongestionGatedIsInert(t *testing.T) {
	base := Options{MaxOuterIters: 6, InnerIters: 20}
	refPl, refRes := congPlace(t, base)
	if refRes.Congestion != nil {
		t.Fatal("congestion off but Result.Congestion set")
	}

	gated := base
	// MaxDensOverflow this small never opens: the schedule stays untouched.
	gated.Congestion = congestion.Options{Enable: true, MaxDensOverflow: 1e-12}
	gotPl, gotRes := congPlace(t, gated)
	if gotRes.Congestion == nil {
		t.Fatal("congestion enabled but Result.Congestion is nil")
	}
	if gotRes.Congestion.Snapshots != 0 {
		t.Fatalf("gated controller still snapshotted %d times", gotRes.Congestion.Snapshots)
	}
	for i := range refPl.X {
		if gotPl.X[i] != refPl.X[i] || gotPl.Y[i] != refPl.Y[i] {
			t.Fatalf("gated congestion moved cell %d: (%v,%v) != (%v,%v)",
				i, gotPl.X[i], gotPl.Y[i], refPl.X[i], refPl.Y[i])
		}
	}
}
