package route

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// refRoute is the reference segment router: it builds every candidate path
// in full and keeps the first strictly cheapest. route must return the same
// edge sequence for every segment and usage state.
func (r *grouter) refRoute(a, b [2]int) []grEdgeRef {
	if a[0] == b[0] && a[1] == b[1] {
		return nil
	}
	best := math.Inf(1)
	var bestPath []grEdgeRef
	try := func(path []grEdgeRef, cost float64) {
		if cost < best {
			best = cost
			bestPath = path
		}
	}
	const detourWindow = 6
	lo := maxInt(0, minInt(a[0], b[0])-detourWindow)
	hi := minInt(r.grid.NX-1, maxInt(a[0], b[0])+detourWindow)
	for m := lo; m <= hi; m++ {
		path, cost := r.refZPathHV(a, b, m)
		try(path, cost)
	}
	lo = maxInt(0, minInt(a[1], b[1])-detourWindow)
	hi = minInt(r.grid.NY-1, maxInt(a[1], b[1])+detourWindow)
	for m := lo; m <= hi; m++ {
		path, cost := r.refZPathVH(a, b, m)
		try(path, cost)
	}
	return bestPath
}

// refZPathHV: horizontal from a to column m, vertical to b's row, horizontal to b.
func (r *grouter) refZPathHV(a, b [2]int, m int) ([]grEdgeRef, float64) {
	var path []grEdgeRef
	cost := 0.0
	addH := func(x0, x1, y int) {
		step := 1
		if x1 < x0 {
			step = -1
		}
		for x := x0; x != x1; x += step {
			i := x
			if step < 0 {
				i = x - 1
			}
			idx := r.hIdx(i, y)
			path = append(path, grEdgeRef{true, idx})
			cost += edgeCost(r.hUse[idx], r.hCap)
		}
	}
	addV := func(y0, y1, x int) {
		step := 1
		if y1 < y0 {
			step = -1
		}
		for y := y0; y != y1; y += step {
			j := y
			if step < 0 {
				j = y - 1
			}
			idx := r.vIdx(x, j)
			path = append(path, grEdgeRef{false, idx})
			cost += edgeCost(r.vUse[idx], r.vCap)
		}
	}
	addH(a[0], m, a[1])
	addV(a[1], b[1], m)
	addH(m, b[0], b[1])
	return path, cost
}

// refZPathVH: vertical from a to row m, horizontal to b's column, vertical to b.
func (r *grouter) refZPathVH(a, b [2]int, m int) ([]grEdgeRef, float64) {
	var path []grEdgeRef
	cost := 0.0
	addH := func(x0, x1, y int) {
		step := 1
		if x1 < x0 {
			step = -1
		}
		for x := x0; x != x1; x += step {
			i := x
			if step < 0 {
				i = x - 1
			}
			idx := r.hIdx(i, y)
			path = append(path, grEdgeRef{true, idx})
			cost += edgeCost(r.hUse[idx], r.hCap)
		}
	}
	addV := func(y0, y1, x int) {
		step := 1
		if y1 < y0 {
			step = -1
		}
		for y := y0; y != y1; y += step {
			j := y
			if step < 0 {
				j = y - 1
			}
			idx := r.vIdx(x, j)
			path = append(path, grEdgeRef{false, idx})
			cost += edgeCost(r.vUse[idx], r.vCap)
		}
	}
	addV(a[1], m, a[0])
	addH(a[0], b[0], m)
	addV(m, b[1], b[0])
	return path, cost
}

// loadedRouter returns an nx×ny router whose edges carry random integer
// usage around their capacity of 4 tracks: many edges sit exactly at one
// value (so equal-cost candidates tie), and the rest straddle the cost knee
// at 80% utilization.
func loadedRouter(rng *rand.Rand, nx, ny int) *grouter {
	r := &grouter{grid: geom.NewGrid(geom.NewRect(0, 0, float64(nx), float64(ny)), nx, ny)}
	r.hUse = make([]float64, (nx-1)*ny)
	r.vUse = make([]float64, nx*(ny-1))
	r.hCap, r.vCap = 4, 4
	for _, use := range [][]float64{r.hUse, r.vUse} {
		for i := range use {
			if rng.Intn(2) == 0 {
				use[i] = 2 // below the knee: unit cost, ties everywhere
			} else {
				use[i] = float64(rng.Intn(7))
			}
		}
	}
	return r
}

// TestRouteMatchesReference routes random segments on loaded grids and
// requires route to return exactly the reference router's edge sequence.
// Segments include pairs in one row or one column and endpoints on the
// grid border, where the detour window is clipped; each routed path is
// applied to the usage, as GlobalRouteCtx does, so later segments see the
// congestion of earlier ones.
func TestRouteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		nx, ny := 2+rng.Intn(30), 2+rng.Intn(30)
		r := loadedRouter(rng, nx, ny)
		pick := func(n int) int {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return n - 1
			default:
				return rng.Intn(n)
			}
		}
		for s := 0; s < 60; s++ {
			a := [2]int{pick(nx), pick(ny)}
			b := [2]int{pick(nx), pick(ny)}
			switch rng.Intn(4) {
			case 0:
				b[1] = a[1] // same row
			case 1:
				b[0] = a[0] // same column
			}
			want := r.refRoute(a, b)
			got := r.route(a, b)
			if len(got) != len(want) {
				t.Fatalf("trial %d %dx%d %v→%v: route has %d edges, reference %d",
					trial, nx, ny, a, b, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("trial %d %dx%d %v→%v: edge %d is %v, reference %v",
						trial, nx, ny, a, b, k, got[k], want[k])
				}
			}
			if len(got) != cap(got) {
				t.Fatalf("route returned len %d cap %d; want an exact-size slice", len(got), cap(got))
			}
			r.apply(got, 1)
		}
	}
}

// TestRouteDegenerateCapacity covers the no-winner case: with zero
// capacity every candidate costs NaN or +Inf, and route must return nil
// exactly like the reference.
func TestRouteDegenerateCapacity(t *testing.T) {
	r := loadedRouter(rand.New(rand.NewSource(1)), 6, 6)
	r.hCap, r.vCap = 0, 0
	if got, want := r.route([2]int{0, 0}, [2]int{5, 3}), r.refRoute([2]int{0, 0}, [2]int{5, 3}); got != nil || want != nil {
		t.Fatalf("route = %v, reference = %v; want nil for both", got, want)
	}
}

// TestRouteAllocatesOnlyTheWinner pins the scoring contract: one route call
// allocates at most the winning path.
func TestRouteAllocatesOnlyTheWinner(t *testing.T) {
	r := loadedRouter(rand.New(rand.NewSource(2)), 32, 32)
	a, b := [2]int{3, 4}, [2]int{27, 20}
	if n := testing.AllocsPerRun(50, func() { r.route(a, b) }); n > 1 {
		t.Fatalf("route allocated %v times per call, want ≤ 1", n)
	}
}

// globalRouteRef runs the full global-routing flow on the reference router.
func globalRouteRef(nl *netlist.Netlist, pl *netlist.Placement, region geom.Rect, opt GRouteOptions) *GRouteResult {
	return globalRoute(context.Background(), nl, pl, region, opt, (*grouter).refRoute)
}
