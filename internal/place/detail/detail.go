// Package detail implements row-based detailed placement: sliding-window
// reordering inside rows and same-width vertical swaps between nearby rows,
// both accepted only on strict HPWL improvement. It is structure-preserving:
// cells locked by the caller (datapath group members, whose quality comes
// from bit alignment) never move.
package detail

import (
	"context"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// Options controls detailed placement.
type Options struct {
	// Locked marks cells that must not move (indexed by CellID). Fixed
	// cells are always locked regardless.
	Locked []bool
	// Passes is the number of full improvement sweeps (default 2).
	Passes int
	// Window is the reordering window size (default 3; max 4).
	Window int
	// Ctx, when non-nil, is polled between sweeps; on expiry Improve stops
	// early with Result.Partial set. The placement stays legal — every
	// accepted move preserves legality.
	Ctx context.Context
}

// Result reports the improvement achieved.
type Result struct {
	HPWLBefore float64
	HPWLAfter  float64
	Moves      int  // accepted changes
	Partial    bool // stopped early at a deadline
}

// Improve runs detailed placement on a legal placement, keeping it legal.
func Improve(nl *netlist.Netlist, pl *netlist.Placement, core *geom.Core, opt Options) Result {
	if opt.Passes <= 0 {
		opt.Passes = 2
	}
	if opt.Window <= 0 {
		opt.Window = 3
	}
	if opt.Window > 4 {
		opt.Window = 4
	}
	d := &improver{nl: nl, pl: pl, core: core, opt: opt}
	d.buildAdjacency()

	rec := obs.From(opt.Ctx)
	res := Result{HPWLBefore: pl.HPWL(nl)}
	for pass := 0; pass < opt.Passes; pass++ {
		if pipeline.Expired(opt.Ctx) {
			res.Partial = true
			rec.Event("detail", "deadline")
			break
		}
		moves := 0
		moves += d.reorderPass()
		if pipeline.Expired(opt.Ctx) {
			res.Partial = true
			res.Moves += moves
			rec.Event("detail", "deadline")
			break
		}
		moves += d.vSwapPass()
		res.Moves += moves
		rec.Logf(obs.Debug, "detail", "pass %d: %d moves", pass, moves)
		if moves == 0 {
			break
		}
	}
	res.HPWLAfter = pl.HPWL(nl)
	rec.Logf(obs.Debug, "detail", "HPWL %.0f → %.0f (%d moves)",
		res.HPWLBefore, res.HPWLAfter, res.Moves)
	return res
}

type improver struct {
	nl   *netlist.Netlist
	pl   *netlist.Placement
	core *geom.Core
	opt  Options

	cellNets [][]netlist.NetID // dedup nets per cell

	// netStamp[n] == stamp marks net n as seen by the current
	// deduplication; bumping stamp forgets every mark at once.
	netStamp []uint32
	stamp    uint32
	nets     []netlist.NetID // netsOf's reused result
}

func (d *improver) locked(c netlist.CellID) bool {
	if d.nl.Cell(c).Fixed {
		return true
	}
	return d.opt.Locked != nil && int(c) < len(d.opt.Locked) && d.opt.Locked[c]
}

func (d *improver) buildAdjacency() {
	nl := d.nl
	d.cellNets = make([][]netlist.NetID, nl.NumCells())
	d.netStamp = make([]uint32, nl.NumNets())
	for i := range nl.Cells {
		d.newStamp()
		for _, pid := range nl.Cells[i].Pins {
			if ni := nl.Pin(pid).Net; d.firstSeen(ni) {
				d.cellNets[i] = append(d.cellNets[i], ni)
			}
		}
	}
}

// newStamp starts a deduplication: no net counts as seen.
func (d *improver) newStamp() {
	d.stamp++
	if d.stamp == 0 {
		// Wrapped: clear the marks so no stale one equals the new stamp.
		clear(d.netStamp)
		d.stamp = 1
	}
}

// firstSeen marks net ni seen and reports whether it was not seen before in
// the current deduplication.
func (d *improver) firstSeen(ni netlist.NetID) bool {
	if d.netStamp[ni] == d.stamp {
		return false
	}
	d.netStamp[ni] = d.stamp
	return true
}

// netsOf returns the deduplicated union of nets touching the given cells,
// in first-seen order, so wlOf sums them in a fixed order. The slice is
// reused: it holds only until the next call.
func (d *improver) netsOf(cells []netlist.CellID) []netlist.NetID {
	d.newStamp()
	d.nets = d.nets[:0]
	for _, c := range cells {
		for _, ni := range d.cellNets[c] {
			if d.firstSeen(ni) {
				d.nets = append(d.nets, ni)
			}
		}
	}
	return d.nets
}

func (d *improver) wlOf(nets []netlist.NetID) float64 {
	total := 0.0
	for _, ni := range nets {
		total += d.nl.Net(ni).Weight * d.pl.NetHPWL(d.nl, ni)
	}
	return total
}

// rowCells returns movable single-row cells per row index, sorted by x.
func (d *improver) rowCells() [][]netlist.CellID {
	nl, pl, core := d.nl, d.pl, d.core
	rows := make([][]netlist.CellID, core.NumRows())
	rowH := core.RowH()
	for i := range nl.Cells {
		c := netlist.CellID(i)
		if nl.Cells[i].Fixed || nl.Cells[i].H > rowH+1e-9 {
			continue
		}
		r := core.RowIndex(pl.Y[c] + rowH/2)
		rows[r] = append(rows[r], c)
	}
	for r := range rows {
		cells := rows[r]
		sort.Slice(cells, func(a, b int) bool { return d.pl.X[cells[a]] < d.pl.X[cells[b]] })
	}
	return rows
}

// reorderPass slides a window along each row and keeps the best permutation
// of the window cells packed into their combined span.
func (d *improver) reorderPass() int {
	pl := d.pl
	moves := 0
	rows := d.rowCells()
	w := d.opt.Window
	perms := permutations(w)
	origX := make([]float64, w)
	for _, cells := range rows {
		for start := 0; start+w <= len(cells); start++ {
			win := cells[start : start+w]
			ok := true
			for _, c := range win {
				if d.locked(c) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// The permuted cells pack from the window's left edge; the span
			// is bounded on the right by the next cell (or row end), which
			// the pack can never exceed since widths are preserved.
			nets := d.netsOf(win)
			before := d.wlOf(nets)
			for i, c := range win {
				origX[i] = pl.X[c]
			}
			left := origX[0]

			best := before
			bestPerm := -1
			for pi, perm := range perms {
				x := left
				for _, k := range perm {
					pl.X[win[k]] = x
					x += d.nl.Cell(win[k]).W
				}
				if wl := d.wlOf(nets); wl < best-1e-9 {
					best = wl
					bestPerm = pi
				}
			}
			if bestPerm < 0 {
				// Restore the original (possibly gapped) layout.
				for i, c := range win {
					pl.X[c] = origX[i]
				}
				continue
			}
			x := left
			for _, k := range perms[bestPerm] {
				pl.X[win[k]] = x
				x += d.nl.Cell(win[k]).W
			}
			// Keep the row order array consistent with positions.
			sort.Slice(win, func(a, b int) bool { return pl.X[win[a]] < pl.X[win[b]] })
			moves++
		}
	}
	return moves
}

// vSwapPass exchanges same-width cells between nearby rows when it helps.
func (d *improver) vSwapPass() int {
	nl, pl := d.nl, d.pl
	moves := 0
	rows := d.rowCells()
	for r := 0; r+1 < len(rows); r++ {
		upper := rows[r+1]
		for _, c := range rows[r] {
			if d.locked(c) {
				continue
			}
			cw := nl.Cell(c).W
			// Nearest same-width unlocked partner in the row above.
			idx := sort.Search(len(upper), func(i int) bool { return pl.X[upper[i]] >= pl.X[c] })
			for _, j := range []int{idx - 1, idx, idx + 1} {
				if j < 0 || j >= len(upper) {
					continue
				}
				p := upper[j]
				//placelint:ignore floateq cell widths are stored netlist values, never computed; the swap needs identical widths
				if d.locked(p) || nl.Cell(p).W != cw {
					continue
				}
				if math.Abs(pl.X[p]-pl.X[c]) > 8*cw {
					continue
				}
				nets := d.netsOf([]netlist.CellID{c, p})
				before := d.wlOf(nets)
				pl.X[c], pl.X[p] = pl.X[p], pl.X[c]
				pl.Y[c], pl.Y[p] = pl.Y[p], pl.Y[c]
				if d.wlOf(nets) < before-1e-9 {
					moves++
					break
				}
				// Revert.
				pl.X[c], pl.X[p] = pl.X[p], pl.X[c]
				pl.Y[c], pl.Y[p] = pl.Y[p], pl.Y[c]
			}
		}
	}
	return moves
}

// permutations returns all permutations of 0..n-1 (n ≤ 4).
func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	var rec func(cur []int, used []bool)
	rec = func(cur []int, used []bool) {
		if len(cur) == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := 0; i < n; i++ {
			if !used[i] {
				used[i] = true
				rec(append(cur, i), used)
				used[i] = false
			}
		}
	}
	rec(nil, make([]bool, n))
	return out
}
