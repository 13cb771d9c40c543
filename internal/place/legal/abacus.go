package legal

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/netlist"
	"repro/internal/pipeline"
)

// subrow is one free interval of a row carrying Abacus cluster state.
type subrow struct {
	rowIdx   int
	x0, x1   float64
	used     float64
	clusters []cluster
}

// cluster is a maximal run of abutting cells. Standard Abacus bookkeeping:
// the optimal cluster position is q/e clamped into the subrow; q accumulates
// e_i·(x'_i − offset_i) with offset_i the width of earlier cells in the
// cluster.
type cluster struct {
	q, e, w float64
	cells   []netlist.CellID
}

func (c *cluster) pos(sr *subrow) float64 {
	p := c.q / c.e
	if p < sr.x0 {
		p = sr.x0
	}
	if p > sr.x1-c.w {
		p = sr.x1 - c.w
	}
	return p
}

// rowSearchSpan bounds how many rows above/below the desired row Abacus
// examines first; the span doubles when a cell fits in none of them.
const rowSearchSpan = 12

// abacus legalizes the given cells around the existing blockages. Cells are
// processed in increasing global-placement x, the classic Abacus order. The
// context is polled every few hundred cells; on expiry the cells committed
// so far are still written to legal positions and the error wraps
// pipeline.ErrTimeout.
func (l *legalizer) abacus(ctx context.Context, cells []netlist.CellID) error {
	nl, pl, core := l.nl, l.pl, l.core
	rowH := core.RowH()

	// Tall movable cells (multi-row macros) are rare; place them as 1-wide
	// group blocks first so the row model stays single-height.
	var tall []netlist.CellID
	var std []netlist.CellID
	for _, c := range cells {
		if nl.Cell(c).H > rowH+1e-9 {
			tall = append(tall, c)
		} else {
			std = append(std, c)
		}
	}
	inBlock := make([]bool, nl.NumCells())
	for _, c := range tall {
		g := singleCellGroup(c)
		if !l.placeGroupTall(g, inBlock, int(math.Ceil(nl.Cell(c).H/rowH))) {
			return fmt.Errorf("legal: no space for macro %q", nl.Cell(c).Name)
		}
	}

	// Build subrows from the remaining free intervals.
	var subrows []*subrow
	rowSubrows := make([][]*subrow, core.NumRows())
	for r, ivs := range l.free {
		for _, iv := range ivs {
			sr := &subrow{rowIdx: r, x0: iv.x0, x1: iv.x1}
			subrows = append(subrows, sr)
			rowSubrows[r] = append(rowSubrows[r], sr)
		}
	}
	_ = subrows

	sort.SliceStable(std, func(a, b int) bool { return pl.X[std[a]] < pl.X[std[b]] })

	expired := false
	for i, c := range std {
		if i%256 == 0 && pipeline.Expired(ctx) {
			expired = true
			break
		}
		cell := nl.Cell(c)
		desX, desY := pl.X[c], pl.Y[c]
		desRow := core.RowIndex(desY + rowH/2)

		bestCost := math.Inf(1)
		var bestSr *subrow
		span := rowSearchSpan
		for bestSr == nil && span <= 4*core.NumRows() {
			for d := 0; d <= span; d++ {
				cands := []int{desRow - d, desRow + d}
				if d == 0 {
					cands = cands[:1]
				}
				for _, r := range cands {
					if r < 0 || r >= core.NumRows() {
						continue
					}
					yCost := math.Abs(core.Rows[r].Y - desY)
					if yCost >= bestCost {
						continue
					}
					for _, sr := range rowSubrows[r] {
						if sr.used+cell.W > sr.x1-sr.x0 {
							continue
						}
						x := simulate(sr, desX, cell.W)
						cost := yCost + math.Abs(x-desX)
						if cost < bestCost {
							bestCost = cost
							bestSr = sr
						}
					}
				}
				if bestSr != nil && float64(d)*rowH > bestCost {
					break
				}
			}
			span *= 2
		}
		if bestSr == nil {
			return fmt.Errorf("legal: no subrow fits cell %q (w=%g)", cell.Name, cell.W)
		}
		commit(bestSr, c, desX, cell.W)
	}

	// Write final positions: walk clusters, snap to the site grid, resolve
	// rounding overlaps left-to-right with a feasibility-preserving clamp.
	for r := range rowSubrows {
		row := core.Rows[r]
		for _, sr := range rowSubrows[r] {
			remaining := 0.0
			for i := range sr.clusters {
				remaining += sr.clusters[i].w
			}
			cur := sr.x0
			for i := range sr.clusters {
				cl := &sr.clusters[i]
				x := cl.pos(sr)
				if row.SiteW > 0 {
					x = math.Floor((x-row.X)/row.SiteW)*row.SiteW + row.X
				}
				if x < cur {
					x = cur
					if row.SiteW > 0 {
						x = math.Ceil((x-row.X)/row.SiteW)*row.SiteW + row.X
					}
				}
				if x > sr.x1-remaining {
					x = sr.x1 - remaining
					if row.SiteW > 0 {
						x = math.Floor((x-row.X)/row.SiteW)*row.SiteW + row.X
					}
				}
				for _, cid := range cl.cells {
					pl.X[cid] = x
					pl.Y[cid] = row.Y
					x += nl.Cell(cid).W
				}
				cur = x
				remaining -= cl.w
			}
		}
	}
	if expired {
		return pipeline.StageError("legalize", pipeline.ErrTimeout)
	}
	return nil
}

// simulate computes where a cell of width w appended at desired x would
// land in sr, without mutating state.
func simulate(sr *subrow, desX, w float64) float64 {
	q, e, wSum := desX, 1.0, w
	pos := clampPos(q/e, sr, wSum)
	for k := len(sr.clusters) - 1; k >= 0; k-- {
		c := &sr.clusters[k]
		cPos := c.pos(sr)
		if cPos+c.w <= pos {
			break
		}
		q = c.q + q - e*c.w
		e += c.e
		wSum += c.w
		pos = clampPos(q/e, sr, wSum)
	}
	return pos + wSum - w
}

// commit appends the cell for real, collapsing clusters.
func commit(sr *subrow, cid netlist.CellID, desX, w float64) {
	sr.clusters = append(sr.clusters, cluster{
		q: desX, e: 1, w: w, cells: []netlist.CellID{cid},
	})
	sr.used += w
	for len(sr.clusters) >= 2 {
		last := &sr.clusters[len(sr.clusters)-1]
		prev := &sr.clusters[len(sr.clusters)-2]
		if prev.pos(sr)+prev.w <= last.pos(sr) {
			break
		}
		// Merge last into prev.
		prev.q += last.q - last.e*prev.w
		prev.e += last.e
		prev.w += last.w
		prev.cells = append(prev.cells, last.cells...)
		sr.clusters = sr.clusters[:len(sr.clusters)-1]
	}
}

func clampPos(p float64, sr *subrow, w float64) float64 {
	if p < sr.x0 {
		p = sr.x0
	}
	if p > sr.x1-w {
		p = sr.x1 - w
	}
	return p
}

// singleCellGroup wraps one tall cell as a one-column group.
func singleCellGroup(c netlist.CellID) []netlist.CellID {
	return []netlist.CellID{c}
}

// placeGroupTall places a tall cell spanning nRows rows using the same span
// intersection as datapath blocks.
func (l *legalizer) placeGroupTall(cells []netlist.CellID, inBlock []bool, nRows int) bool {
	nl, pl, core := l.nl, l.pl, l.core
	c := cells[0]
	cell := nl.Cell(c)
	desX, desY := pl.X[c], pl.Y[c]
	desRow := core.RowIndex(desY + core.RowH()/2)

	bestCost := math.Inf(1)
	bestRow, bestX := -1, 0.0
	for d := 0; d < core.NumRows(); d++ {
		cands := []int{desRow - d, desRow + d}
		if d == 0 {
			cands = cands[:1]
		}
		for _, r := range cands {
			if r < 0 || r+nRows > core.NumRows() {
				continue
			}
			yCost := math.Abs(core.Rows[r].Y - desY)
			if yCost >= bestCost {
				continue
			}
			x, ok := l.fitSpan(r, nRows, cell.W, desX)
			if !ok {
				continue
			}
			if cost := yCost + math.Abs(x-desX); cost < bestCost {
				bestCost, bestRow, bestX = cost, r, x
			}
		}
		if bestRow >= 0 && float64(d+1)*core.RowH() > bestCost {
			break
		}
	}
	if bestRow < 0 {
		return false
	}
	row := core.Rows[bestRow]
	if row.SiteW > 0 {
		bestX = math.Floor((bestX-row.X)/row.SiteW)*row.SiteW + row.X
	}
	pl.X[c] = bestX
	pl.Y[c] = row.Y
	inBlock[c] = true
	for b := 0; b < nRows; b++ {
		l.occupy(bestRow+b, bestX, bestX+cell.W)
	}
	return true
}
