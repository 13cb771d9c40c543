// Package legal turns a spread global placement into a legal one: every
// movable cell inside the core, bottom-aligned to a row, on the site grid,
// with no overlaps. It is structure-preserving: extracted datapath groups
// are snapped first as rigid bit-aligned blocks (one row per bit, one
// x-aligned column per stage) by a Tetris-style scan, then the remaining
// cells are legalized with the Abacus row-cluster algorithm around them.
package legal

import (
	"context"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/place/global"
)

// Options controls legalization.
type Options struct {
	// Groups are placed as rigid arrays before everything else.
	Groups []global.AlignGroup
}

// Result reports legalization quality.
type Result struct {
	TotalDisplacement float64 // Manhattan sum over movable cells
	MaxDisplacement   float64
	GroupBlocks       int // groups successfully placed as rigid blocks
	GroupFallbacks    int // groups dissolved into plain cells (no fit)
}

// LegalizeCtx updates pl in place. The incoming placement must be inside the
// core region; the outgoing placement satisfies Placement.CheckLegal.
//
// The context is polled between group blocks and periodically inside the
// Abacus scan; on expiry the error wraps pipeline.ErrTimeout and the
// placement is only partially legalized (cells processed so far are legal,
// the rest keep their global positions).
func LegalizeCtx(ctx context.Context, nl *netlist.Netlist, pl *netlist.Placement, core *geom.Core, opt Options) (Result, error) {
	before := pl.Clone()
	l := newLegalizer(nl, pl, core)

	var res Result
	// Stage A: rigid group blocks, largest first.
	groups := append([]global.AlignGroup(nil), opt.Groups...)
	sort.SliceStable(groups, func(a, b int) bool {
		return groupCells(groups[a]) > groupCells(groups[b])
	})
	rec := obs.From(ctx)
	inBlock := make([]bool, nl.NumCells())
	for gi, g := range groups {
		if pipeline.Expired(ctx) {
			rec.Event("legalize", "deadline")
			return res, pipeline.StageError("legalize", pipeline.ErrTimeout)
		}
		if l.placeGroup(g, inBlock) {
			res.GroupBlocks++
		} else {
			res.GroupFallbacks++
			rec.Event("legalize", "group-fallback")
			rec.Logf(obs.Debug, "legalize", "group %d (size %d): no rigid-block fit, dissolving",
				gi, groupCells(g))
		}
	}

	// Stage B: Abacus for everything else (including dissolved groups).
	var rest []netlist.CellID
	for i := range nl.Cells {
		if nl.Cells[i].Fixed || inBlock[i] {
			continue
		}
		rest = append(rest, netlist.CellID(i))
	}
	if err := l.abacus(ctx, rest); err != nil {
		return res, err
	}

	res.TotalDisplacement = pl.TotalDisplacement(nl, before)
	res.MaxDisplacement = pl.MaxDisplacement(nl, before)
	return res, nil
}

func groupCells(g global.AlignGroup) int {
	n := 0
	for _, col := range g.Cols {
		n += len(col)
	}
	return n
}

// interval is a free span [x0, x1) within a row.
type interval struct {
	x0, x1 float64
}

// legalizer tracks per-row free space.
type legalizer struct {
	nl   *netlist.Netlist
	pl   *netlist.Placement
	core *geom.Core
	free [][]interval // per row, sorted by x0
}

func newLegalizer(nl *netlist.Netlist, pl *netlist.Placement, core *geom.Core) *legalizer {
	l := &legalizer{nl: nl, pl: pl, core: core}
	l.free = make([][]interval, core.NumRows())
	for r, row := range core.Rows {
		l.free[r] = []interval{{row.X, row.Right()}}
	}
	// Fixed cells inside the core are blockages.
	for i := range nl.Cells {
		if !nl.Cells[i].Fixed {
			continue
		}
		r := pl.CellRect(nl, netlist.CellID(i))
		if r.Intersect(core.Region).Empty() {
			continue
		}
		r0 := core.RowIndex(r.Lo.Y + 1e-9)
		r1 := core.RowIndex(r.Hi.Y - 1e-9)
		for ri := r0; ri <= r1; ri++ {
			l.occupy(ri, r.Lo.X, r.Hi.X)
		}
	}
	return l
}

// occupy removes [x0, x1) from row ri's free list.
func (l *legalizer) occupy(ri int, x0, x1 float64) {
	if ri < 0 || ri >= len(l.free) || x1 <= x0 {
		return
	}
	var out []interval
	for _, iv := range l.free[ri] {
		if x1 <= iv.x0 || x0 >= iv.x1 {
			out = append(out, iv)
			continue
		}
		if iv.x0 < x0 {
			out = append(out, interval{iv.x0, x0})
		}
		if x1 < iv.x1 {
			out = append(out, interval{x1, iv.x1})
		}
	}
	l.free[ri] = out
}

// placeGroup snaps one group as bit-aligned column strips: every column
// keeps one cell per consecutive row starting from a shared bottom row, but
// columns land independently near their global-placement x. This preserves
// the structure (exact bit alignment, x-aligned columns) without forcing the
// whole array into one monolithic rectangle — monolithic packing degenerates
// into a greedy floorplanner and wrecks wirelength on datapath-heavy
// designs. Returns false when no feasible bottom row exists.
func (l *legalizer) placeGroup(g global.AlignGroup, inBlock []bool) bool {
	if len(g.Cols) == 0 || len(g.Cols[0]) == 0 {
		return false
	}
	nl, pl, core := l.nl, l.pl, l.core
	bits := len(g.Cols[0])
	if bits > core.NumRows() {
		return false
	}

	// Column geometry, ordered by mean x.
	cols := make([]placeCol, 0, len(g.Cols))
	var meanY float64
	n := 0
	for _, col := range g.Cols {
		ci := placeCol{cells: col}
		for _, c := range col {
			ci.meanX += pl.X[c]
			ci.w = math.Max(ci.w, nl.Cell(c).W)
			meanY += pl.Y[c]
			n++
		}
		ci.meanX /= float64(len(col))
		cols = append(cols, ci)
	}
	meanY /= float64(n)
	sort.SliceStable(cols, func(a, b int) bool { return cols[a].meanX < cols[b].meanX })

	rowH := core.RowH()
	desY := meanY - float64(bits)*rowH/2
	desRow := core.RowIndex(desY + rowH/2)

	// Try candidate bottom rows near the desired one; for each, greedily
	// place the columns left to right and keep the cheapest feasible row.
	type placedCol struct{ x float64 }
	var bestPlacement []placedCol
	bestRow := -1
	bestCost := math.Inf(1)
	maxScan := core.NumRows()
	for d := 0; d < maxScan; d++ {
		cands := []int{desRow - d, desRow + d}
		if d == 0 {
			cands = cands[:1]
		}
		for _, r := range cands {
			if r < 0 || r+bits > core.NumRows() {
				continue
			}
			yCost := math.Abs(core.Rows[r].Y-desY) * float64(n)
			if yCost >= bestCost {
				continue
			}
			spans := l.spanIntervals(r, bits)
			// Ideal packed x-positions first (columns of a merged group
			// often share their mean, e.g. the words of a register bank;
			// naive left-to-right placement at raw means runs off the row).
			targets := packColumns(colMeans(cols), colWidths(cols), core.Rows[r].X, core.Rows[r].Right())
			placement := make([]placedCol, 0, len(cols))
			cost := yCost
			minX := math.Inf(-1)
			ok := true
			for k, ci := range cols {
				x, fit := fitInSpans(spans, ci.w, targets[k], minX)
				if !fit {
					ok = false
					break
				}
				placement = append(placement, placedCol{x})
				spans = subtractInterval(spans, x, x+ci.w)
				minX = x + ci.w
				cost += math.Abs(x-ci.meanX) * float64(bits)
				if cost >= bestCost {
					ok = false
					break
				}
			}
			if ok && cost < bestCost {
				bestCost = cost
				bestRow = r
				bestPlacement = placement
			}
		}
		if bestRow >= 0 && float64(d)*rowH*float64(n) > bestCost {
			break
		}
	}
	if bestRow < 0 {
		return false
	}

	site := core.Rows[bestRow].SiteW
	for k, ci := range cols {
		x := bestPlacement[k].x
		if site > 0 {
			x = math.Floor((x-core.Rows[bestRow].X)/site)*site + core.Rows[bestRow].X
			if x < core.Rows[bestRow].X {
				x = core.Rows[bestRow].X
			}
		}
		for b, cell := range ci.cells {
			pl.X[cell] = x
			pl.Y[cell] = core.Rows[bestRow+b].Y
			inBlock[cell] = true
		}
		for b := 0; b < bits; b++ {
			l.occupy(bestRow+b, x, x+ci.w)
		}
	}
	return true
}

// spanIntervals returns the x-ranges free in ALL rows r..r+bits-1.
func (l *legalizer) spanIntervals(r, bits int) []interval {
	spans := append([]interval(nil), l.free[r]...)
	for b := 1; b < bits && len(spans) > 0; b++ {
		spans = intersectIntervals(spans, l.free[r+b])
	}
	return spans
}

// fitInSpans finds the x ≥ minX closest to desX where width w fits in one
// of the spans.
func fitInSpans(spans []interval, w, desX, minX float64) (float64, bool) {
	bestX, best := 0.0, math.Inf(1)
	found := false
	for _, iv := range spans {
		lo := math.Max(iv.x0, minX)
		if iv.x1-lo < w {
			continue
		}
		x := geom.Clamp(desX, lo, iv.x1-w)
		if d := math.Abs(x - desX); d < best {
			best = d
			bestX = x
			found = true
		}
	}
	return bestX, found
}

// subtractInterval removes [x0, x1) from every span.
func subtractInterval(spans []interval, x0, x1 float64) []interval {
	var out []interval
	for _, iv := range spans {
		if x1 <= iv.x0 || x0 >= iv.x1 {
			out = append(out, iv)
			continue
		}
		if iv.x0 < x0 {
			out = append(out, interval{iv.x0, x0})
		}
		if x1 < iv.x1 {
			out = append(out, interval{x1, iv.x1})
		}
	}
	return out
}

// fitSpan finds the x closest to desX where a block of width w fits in all
// rows r..r+bits-1 simultaneously (used for tall movable macros).
func (l *legalizer) fitSpan(r, bits int, w, desX float64) (float64, bool) {
	return fitInSpans(l.spanIntervals(r, bits), w, desX, math.Inf(-1))
}

func intersectIntervals(a, b []interval) []interval {
	var out []interval
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := math.Max(a[i].x0, b[j].x0)
		hi := math.Min(a[i].x1, b[j].x1)
		if lo < hi {
			out = append(out, interval{lo, hi})
		}
		if a[i].x1 < b[j].x1 {
			i++
		} else {
			j++
		}
	}
	return out
}

// placeCol is one group column during legalization.
type placeCol struct {
	cells []netlist.CellID
	meanX float64
	w     float64
}

// colMeans and colWidths project the column slice for packColumns; they are
// tiny but keep the call site readable.
func colMeans(cols []placeCol) []float64 {
	out := make([]float64, len(cols))
	for i := range cols {
		out[i] = cols[i].meanX
	}
	return out
}

func colWidths(cols []placeCol) []float64 {
	out := make([]float64, len(cols))
	for i := range cols {
		out[i] = cols[i].w
	}
	return out
}

// packColumns computes non-overlapping x positions for ordered columns that
// minimize the quadratic distance to the desired positions within [lo, hi]:
// the classic cluster-collapse (Abacus) recurrence in one dimension.
func packColumns(mus, ws []float64, lo, hi float64) []float64 {
	n := len(mus)
	type cl struct {
		q, e, w float64
		first   int
	}
	var clusters []cl
	pos := func(c cl, totalAfter float64) float64 {
		p := c.q / c.e
		if p < lo {
			p = lo
		}
		if p > hi-c.w-totalAfter {
			p = hi - c.w - totalAfter
		}
		if p < lo {
			p = lo
		}
		return p
	}
	for i := 0; i < n; i++ {
		clusters = append(clusters, cl{q: mus[i], e: 1, w: ws[i], first: i})
		for len(clusters) >= 2 {
			last := clusters[len(clusters)-1]
			prev := clusters[len(clusters)-2]
			if pos(prev, 0)+prev.w <= pos(last, 0) {
				break
			}
			prev.q += last.q - last.e*prev.w
			prev.e += last.e
			prev.w += last.w
			clusters = clusters[:len(clusters)-2]
			clusters = append(clusters, prev)
		}
	}
	out := make([]float64, n)
	// Assign left to right, clamping so the remaining width always fits.
	remaining := 0.0
	for _, c := range clusters {
		remaining += c.w
	}
	cur := lo
	for ci, c := range clusters {
		after := 0.0
		for _, d := range clusters[ci+1:] {
			after += d.w
		}
		x := pos(c, after)
		if x < cur {
			x = cur
		}
		// Clusters always merge consecutive columns, so this cluster's
		// members run from c.first up to the next cluster's first column
		// (float accumulation makes a width-based loop bound unsafe).
		end := n
		if ci+1 < len(clusters) {
			end = clusters[ci+1].first
		}
		x2 := x
		for k := c.first; k < end; k++ {
			out[k] = x2
			x2 += ws[k]
		}
		cur = x + c.w
		remaining -= c.w
	}
	return out
}
