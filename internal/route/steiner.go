// Package route provides the routing-cost proxies used by the evaluation:
// rectilinear Steiner wirelength (StWL) via a Prim minimum spanning tree
// with greedy 1-Steiner refinement over the Hanan grid, and the RUDY
// probabilistic congestion map. These stand in for a full router — the
// standard substitution in the placement literature, where StWL correlates
// within a few percent of routed wirelength.
package route

import (
	"context"
	"math"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/par"
)

// steinerRefineLimit caps the net degree for Hanan-grid refinement;
// larger nets fall back to the plain MST length (the O(n^3)-per-point
// refinement would dominate runtime while changing StWL little).
const steinerRefineLimit = 12

// NetSteiner returns the estimated rectilinear Steiner minimal tree length
// of the given pin locations.
func NetSteiner(pts []geom.Point) float64 {
	switch len(pts) {
	case 0, 1:
		return 0
	case 2:
		return pts[0].Manhattan(pts[1])
	case 3:
		// The 3-terminal RSMT meets at the medians: length = HPWL.
		var b geom.BBox
		for _, p := range pts {
			b.Expand(p)
		}
		return b.HalfPerimeter()
	}
	if len(pts) > steinerRefineLimit {
		return mstLength(pts)
	}
	return greedySteiner(pts)
}

// mstLength returns the Manhattan-distance Prim MST length of pts (O(n²)).
func mstLength(pts []geom.Point) float64 {
	n := len(pts)
	inTree := make([]bool, n)
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[0] = 0
	total := 0.0
	for iter := 0; iter < n; iter++ {
		best := -1
		for i := 0; i < n; i++ {
			if !inTree[i] && (best < 0 || dist[i] < dist[best]) {
				best = i
			}
		}
		inTree[best] = true
		total += dist[best]
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := pts[best].Manhattan(pts[i]); d < dist[i] {
					dist[i] = d
				}
			}
		}
	}
	return total
}

// greedySteiner implements the classic greedy 1-Steiner heuristic: repeatedly
// insert the Hanan-grid point that shrinks the MST the most, until no point
// helps. Terminals stay mandatory; inserted points with degree ≤ 2 add no
// value and the MST simply ignores them (their insertion is only accepted on
// strict improvement).
func greedySteiner(pts []geom.Point) float64 {
	cur := make([]geom.Point, len(pts))
	copy(cur, pts)
	curLen := mstLength(cur)
	// Hanan candidates come from the original terminals only; refreshing
	// them from inserted points yields marginal gains at quadratic cost.
	xs := make([]float64, 0, len(pts))
	ys := make([]float64, 0, len(pts))
	for _, p := range pts {
		xs = append(xs, p.X)
		ys = append(ys, p.Y)
	}
	for rounds := 0; rounds < len(pts); rounds++ {
		bestLen := curLen
		var bestPt geom.Point
		found := false
		for _, x := range xs {
			for _, y := range ys {
				cand := geom.Point{X: x, Y: y}
				if containsPoint(cur, cand) {
					continue
				}
				l := mstLength(append(cur, cand))
				if l < bestLen-1e-12 {
					bestLen = l
					bestPt = cand
					found = true
				}
			}
		}
		if !found {
			break
		}
		cur = append(cur, bestPt)
		curLen = bestLen
	}
	return curLen
}

func containsPoint(pts []geom.Point, q geom.Point) bool {
	for _, p := range pts {
		if p == q {
			return true
		}
	}
	return false
}

// SteinerWLPool returns the total weighted Steiner wirelength of a
// placement, sharded per net across a worker pool. Each net's tree length
// is computed independently into a per-net slot; the weighted sum then runs
// serially in net order, so the result is bit-identical to the serial loop
// at every worker count. A nil pool runs inline. When ctx expires
// mid-computation the function returns NaN — the caller sees an unusable
// metric rather than a silently truncated one.
func SteinerWLPool(ctx context.Context, pool *par.Pool, nl *netlist.Netlist, pl *netlist.Placement) float64 {
	lens := make([]float64, len(nl.Nets))
	err := pool.Run(ctx, len(nl.Nets), 8, func(lo, hi int) {
		var pts []geom.Point
		for i := lo; i < hi; i++ {
			net := &nl.Nets[i]
			if net.Degree() < 2 {
				continue
			}
			pts = pts[:0]
			for _, pid := range net.Pins {
				pts = append(pts, pl.PinPos(nl, pid))
			}
			lens[i] = NetSteiner(pts)
		}
	})
	if err != nil {
		return math.NaN()
	}
	total := 0.0
	for i := range nl.Nets {
		if nl.Nets[i].Degree() < 2 {
			continue
		}
		total += nl.Nets[i].Weight * lens[i]
	}
	return total
}
