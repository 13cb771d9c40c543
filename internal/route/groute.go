package route

import (
	"context"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// GRouteOptions configures the global router.
type GRouteOptions struct {
	NX, NY    int     // routing grid (default 48×48)
	WirePitch float64 // track pitch in database units (default 1)
	// CapacityFactor scales the geometric edge capacities (default 0.35:
	// roughly a third of the crossing tracks are available to signal
	// routing, the rest go to power/clock/blockage — the conventional
	// global-routing assumption).
	CapacityFactor float64
}

// Fixed parameters of the global router.
const (
	// ripupPasses is the number of rip-up-and-reroute passes after the
	// initial routing.
	ripupPasses = 2
	// maxRouteDegree skips monster nets (clock trees): they are routed on
	// dedicated resources in practice.
	maxRouteDegree = 64
)

// GRouteResult summarizes a global routing.
type GRouteResult struct {
	WirelengthDB  float64 // routed wirelength in database units, detours included
	Overflow      float64 // Σ max(0, usage − capacity) over edges, in tracks
	MaxUsage      float64 // peak edge usage/capacity
	OverflowEdges int     // edges above capacity
	OverflowBins  int     // routing-grid bins touching at least one overflowed edge
	SkippedNets   int     // nets above the router's degree limit (64 pins)
	Partial       bool    // a deadline stopped routing early
	// GridNX/GridNY record the routing-grid shape BinOverflow is indexed by.
	GridNX, GridNY int
	// BinOverflow maps overflow onto bins in Grid.Index order (j*GridNX+i):
	// each overflowed edge's excess tracks are split evenly between the two
	// bins the edge connects, so the slice sums to Overflow exactly. It is
	// O(bins) large and excluded from JSON run reports; dpeval exports the
	// nonzero entries explicitly for the CI gate and EXPERIMENTS tables.
	BinOverflow []float64 `json:"-"`
}

// grEdge addressing: horizontal edges cross vertical bin boundaries
// (between (i,j) and (i+1,j)); vertical edges cross horizontal boundaries.
type grouter struct {
	opt  GRouteOptions
	grid geom.Grid
	// usage/capacity per edge.
	hUse, vUse []float64
	hCap, vCap float64
	// per-net routed paths: sequence of edge ids (sign split h/v).
	paths [][]grEdgeRef
}

type grEdgeRef struct {
	horizontal bool
	idx        int
}

func (r *grouter) hIdx(i, j int) int { return j*(r.grid.NX-1) + i }
func (r *grouter) vIdx(i, j int) int { return j*r.grid.NX + i }

// GlobalRouteCtx routes every net of the placement over a coarse grid with
// L/Z-pattern routing and congestion-driven rip-up-and-reroute. It is the
// routed-wirelength proxy of the evaluation: unlike RUDY it models detours,
// so scrambled buses pay for the congestion they cause.
//
// The context is polled between routing batches and rip-up passes; on
// expiry the result reflects the segments routed so far and has Partial
// set.
func GlobalRouteCtx(ctx context.Context, nl *netlist.Netlist, pl *netlist.Placement, region geom.Rect, opt GRouteOptions) *GRouteResult {
	return globalRoute(ctx, nl, pl, region, opt, (*grouter).route)
}

// globalRoute is GlobalRouteCtx with the per-segment router as a parameter,
// so tests can run the whole flow on a reference router and compare results.
func globalRoute(ctx context.Context, nl *netlist.Netlist, pl *netlist.Placement, region geom.Rect, opt GRouteOptions,
	route func(r *grouter, a, b [2]int) []grEdgeRef) *GRouteResult {
	if opt.NX <= 0 {
		opt.NX = 48
	}
	if opt.NY <= 0 {
		opt.NY = 48
	}
	if opt.WirePitch <= 0 {
		opt.WirePitch = 1
	}
	if opt.CapacityFactor <= 0 {
		opt.CapacityFactor = 0.35
	}
	r := &grouter{opt: opt, grid: geom.NewGrid(region, opt.NX, opt.NY)}
	r.hUse = make([]float64, (opt.NX-1)*opt.NY)
	r.vUse = make([]float64, opt.NX*(opt.NY-1))
	r.hCap = opt.CapacityFactor * r.grid.BinH / opt.WirePitch
	r.vCap = opt.CapacityFactor * r.grid.BinW / opt.WirePitch

	// Decompose nets into 2-pin segments along their MST; order nets by
	// bounding box (small, local nets first — they have no flexibility).
	type segment struct {
		net  netlist.NetID
		a, b [2]int // bin coords
	}
	var segs []segment
	res := &GRouteResult{}
	var pts []geom.Point
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		if net.Degree() < 2 {
			continue
		}
		if net.Degree() > maxRouteDegree {
			res.SkippedNets++
			continue
		}
		pts = pts[:0]
		for _, pid := range net.Pins {
			pts = append(pts, pl.PinPos(nl, pid))
		}
		for _, e := range mstEdges(pts) {
			ai, aj := r.grid.Loc(pts[e[0]])
			bi, bj := r.grid.Loc(pts[e[1]])
			if ai == bi && aj == bj {
				continue
			}
			segs = append(segs, segment{netlist.NetID(ni), [2]int{ai, aj}, [2]int{bi, bj}})
		}
	}
	sort.SliceStable(segs, func(a, b int) bool {
		la := absInt(segs[a].a[0]-segs[a].b[0]) + absInt(segs[a].a[1]-segs[a].b[1])
		lb := absInt(segs[b].a[0]-segs[b].b[0]) + absInt(segs[b].a[1]-segs[b].b[1])
		return la < lb
	})

	rec := obs.From(ctx)
	sp := rec.Span("route")
	sp.Add("segments", int64(len(segs)))

	r.paths = make([][]grEdgeRef, len(segs))
	for si := range segs {
		if si%1024 == 0 && pipeline.Expired(ctx) {
			res.Partial = true
			break
		}
		r.paths[si] = route(r, segs[si].a, segs[si].b)
		r.apply(r.paths[si], 1)
	}

	// Rip-up and reroute segments that touch overloaded edges.
	for pass := 0; pass < ripupPasses && !res.Partial; pass++ {
		if pipeline.Expired(ctx) {
			res.Partial = true
			break
		}
		rerouted := 0
		for si := range segs {
			if !r.overflows(r.paths[si]) {
				continue
			}
			r.apply(r.paths[si], -1)
			r.paths[si] = route(r, segs[si].a, segs[si].b)
			r.apply(r.paths[si], 1)
			rerouted++
		}
		sp.Add("rerouted", int64(rerouted))
		rec.Logf(obs.Debug, "route", "rip-up pass %d: %d segments rerouted", pass, rerouted)
		if rerouted == 0 {
			break
		}
	}
	defer sp.End()

	// Collect metrics.
	for si := range segs {
		for _, e := range r.paths[si] {
			if e.horizontal {
				res.WirelengthDB += r.grid.BinW
			} else {
				res.WirelengthDB += r.grid.BinH
			}
		}
	}
	res.GridNX, res.GridNY = opt.NX, opt.NY
	res.BinOverflow = make([]float64, r.grid.Bins())
	for idx, u := range r.hUse {
		if u > r.hCap {
			ex := u - r.hCap
			res.Overflow += ex
			res.OverflowEdges++
			// A horizontal edge crosses the boundary between bins (i,j)
			// and (i+1,j); charge half the excess to each side.
			i, j := idx%(opt.NX-1), idx/(opt.NX-1)
			res.BinOverflow[r.grid.Index(i, j)] += ex / 2
			res.BinOverflow[r.grid.Index(i+1, j)] += ex / 2
		}
		if m := u / r.hCap; m > res.MaxUsage {
			res.MaxUsage = m
		}
	}
	for idx, u := range r.vUse {
		if u > r.vCap {
			ex := u - r.vCap
			res.Overflow += ex
			res.OverflowEdges++
			i, j := idx%opt.NX, idx/opt.NX
			res.BinOverflow[r.grid.Index(i, j)] += ex / 2
			res.BinOverflow[r.grid.Index(i, j+1)] += ex / 2
		}
		if m := u / r.vCap; m > res.MaxUsage {
			res.MaxUsage = m
		}
	}
	for _, v := range res.BinOverflow {
		if v > 0 {
			res.OverflowBins++
		}
	}
	return res
}

// edgeCost is the congestion-aware cost of adding one track to an edge at
// the given usage/capacity: cheap below 80% utilization, steeply rising
// beyond (routers must be strongly discouraged from overfilling).
func edgeCost(use, cap float64) float64 {
	u := use / cap
	if u < 0.8 {
		return 1
	}
	return 1 + 16*(u-0.8)*(u-0.8)*25
}

// route finds the cheapest monotone L/Z path between two bins: it tries
// both L shapes and every Z with one intermediate bend along either axis.
// Candidates are only scored — zPath with a nil path walks their edges and
// sums the costs without building anything — and the first strictly
// cheapest one is then built once, into a slice of exactly its length.
func (r *grouter) route(a, b [2]int) []grEdgeRef {
	if a[0] == b[0] && a[1] == b[1] {
		return nil
	}
	best := math.Inf(1)
	bestHV, bestM, bestN := false, -1, 0
	// The bend position may leave the bounding box by up to detourWindow
	// bins — essential for congestion relief when both pins share a row or
	// column (the straight path would otherwise be the only candidate).
	const detourWindow = 6
	// Z-routes with the vertical run at column m (includes both Ls).
	lo := maxInt(0, minInt(a[0], b[0])-detourWindow)
	hi := minInt(r.grid.NX-1, maxInt(a[0], b[0])+detourWindow)
	for m := lo; m <= hi; m++ {
		if cost, n := r.zPath(a, b, true, m, nil); cost < best {
			best, bestHV, bestM, bestN = cost, true, m, n
		}
	}
	// Z-routes with the horizontal run at row m.
	lo = maxInt(0, minInt(a[1], b[1])-detourWindow)
	hi = minInt(r.grid.NY-1, maxInt(a[1], b[1])+detourWindow)
	for m := lo; m <= hi; m++ {
		if cost, n := r.zPath(a, b, false, m, nil); cost < best {
			best, bestHV, bestM, bestN = cost, false, m, n
		}
	}
	if bestM < 0 {
		return nil // no finite-cost candidate (degenerate capacities)
	}
	path := make([]grEdgeRef, bestN)
	r.zPath(a, b, bestHV, bestM, path)
	return path
}

// zPath walks the candidate with its bend at m and returns its cost, summed
// edge by edge in walking order, and its edge count. With hv it runs
// horizontally from a to column m, vertically to b's row, then horizontally
// to b; otherwise vertically from a to row m, horizontally to b's column,
// then vertically to b. A non-nil path receives the edges in the same order
// and must have exactly the candidate's edge count.
//
//placelint:hotpath
func (r *grouter) zPath(a, b [2]int, hv bool, m int, path []grEdgeRef) (float64, int) {
	cost, n := 0.0, 0
	if hv {
		cost, n = r.hRun(a[0], m, a[1], cost, path, n)
		cost, n = r.vRun(a[1], b[1], m, cost, path, n)
		return r.hRun(m, b[0], b[1], cost, path, n)
	}
	cost, n = r.vRun(a[1], m, a[0], cost, path, n)
	cost, n = r.hRun(a[0], b[0], m, cost, path, n)
	return r.vRun(m, b[1], b[0], cost, path, n)
}

// hRun walks the horizontal run from column x0 to column x1 along row y,
// adding each edge's cost to cost and counting it in n; when path is
// non-nil it also stores each edge at path[n] before counting it. It
// returns the new cost and count.
//
//placelint:hotpath
func (r *grouter) hRun(x0, x1, y int, cost float64, path []grEdgeRef, n int) (float64, int) {
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
		cost += edgeCost(r.hUse[idx], r.hCap)
		if path != nil {
			path[n] = grEdgeRef{true, idx}
		}
		n++
	}
	return cost, n
}

// vRun is hRun for the vertical run from row y0 to row y1 along column x.
//
//placelint:hotpath
func (r *grouter) vRun(y0, y1, x int, cost float64, path []grEdgeRef, n int) (float64, int) {
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
		cost += edgeCost(r.vUse[idx], r.vCap)
		if path != nil {
			path[n] = grEdgeRef{false, idx}
		}
		n++
	}
	return cost, n
}

func (r *grouter) apply(path []grEdgeRef, delta float64) {
	for _, e := range path {
		if e.horizontal {
			r.hUse[e.idx] += delta
		} else {
			r.vUse[e.idx] += delta
		}
	}
}

func (r *grouter) overflows(path []grEdgeRef) bool {
	for _, e := range path {
		if e.horizontal {
			if r.hUse[e.idx] > r.hCap {
				return true
			}
		} else if r.vUse[e.idx] > r.vCap {
			return true
		}
	}
	return false
}

// mstEdges returns the Prim MST edge list (point index pairs).
func mstEdges(pts []geom.Point) [][2]int {
	n := len(pts)
	if n < 2 {
		return nil
	}
	inTree := make([]bool, n)
	dist := make([]float64, n)
	from := make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[0] = 0
	from[0] = -1
	var edges [][2]int
	for k := 0; k < n; k++ {
		best := -1
		for i := 0; i < n; i++ {
			if !inTree[i] && (best < 0 || dist[i] < dist[best]) {
				best = i
			}
		}
		inTree[best] = true
		if from[best] >= 0 {
			edges = append(edges, [2]int{from[best], best})
		}
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := pts[best].Manhattan(pts[i]); d < dist[i] {
					dist[i] = d
					from[i] = best
				}
			}
		}
	}
	return edges
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
