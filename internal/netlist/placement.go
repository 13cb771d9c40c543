package netlist

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// Placement holds the lower-left coordinates of every cell in a Netlist,
// indexed by CellID. A Placement is always paired with the Netlist it was
// created for; the slices are parallel to Netlist.Cells.
type Placement struct {
	X, Y []float64
}

// NewPlacement returns a zeroed placement for nl.
func NewPlacement(nl *Netlist) *Placement {
	return &Placement{
		X: make([]float64, nl.NumCells()),
		Y: make([]float64, nl.NumCells()),
	}
}

// Clone returns a deep copy.
func (p *Placement) Clone() *Placement {
	q := &Placement{
		X: make([]float64, len(p.X)),
		Y: make([]float64, len(p.Y)),
	}
	copy(q.X, p.X)
	copy(q.Y, p.Y)
	return q
}

// Loc returns the lower-left corner of cell c.
func (p *Placement) Loc(c CellID) geom.Point { return geom.Point{X: p.X[c], Y: p.Y[c]} }

// SetLoc sets the lower-left corner of cell c.
func (p *Placement) SetLoc(c CellID, pt geom.Point) {
	p.X[c] = pt.X
	p.Y[c] = pt.Y
}

// CellRect returns the placed footprint of cell c.
func (p *Placement) CellRect(nl *Netlist, c CellID) geom.Rect {
	cell := &nl.Cells[c]
	return geom.NewRect(p.X[c], p.Y[c], p.X[c]+cell.W, p.Y[c]+cell.H)
}

// CellCenter returns the placed center of cell c.
func (p *Placement) CellCenter(nl *Netlist, c CellID) geom.Point {
	cell := &nl.Cells[c]
	return geom.Point{X: p.X[c] + cell.W/2, Y: p.Y[c] + cell.H/2}
}

// PinPos returns the placed position of pin id. Pins on NoCell (top-level
// terminals) are positioned at their offsets directly.
func (p *Placement) PinPos(nl *Netlist, id PinID) geom.Point {
	pin := &nl.Pins[id]
	if pin.Cell == NoCell {
		return geom.Point{X: pin.DX, Y: pin.DY}
	}
	return geom.Point{X: p.X[pin.Cell] + pin.DX, Y: p.Y[pin.Cell] + pin.DY}
}

// NetBBox returns the bounding box of all pins of net n.
func (p *Placement) NetBBox(nl *Netlist, n NetID) geom.Rect {
	var b geom.BBox
	for _, pid := range nl.Nets[n].Pins {
		b.Expand(p.PinPos(nl, pid))
	}
	return b.Rect()
}

// HPWL returns the weighted half-perimeter wirelength of the whole design,
// the primary placement quality metric.
func (p *Placement) HPWL(nl *Netlist) float64 {
	total := 0.0
	for i := range nl.Nets {
		net := &nl.Nets[i]
		if len(net.Pins) < 2 {
			continue
		}
		var b geom.BBox
		for _, pid := range net.Pins {
			b.Expand(p.PinPos(nl, pid))
		}
		total += net.Weight * b.HalfPerimeter()
	}
	return total
}

// NetHPWL returns the half-perimeter wirelength of one net (unweighted).
func (p *Placement) NetHPWL(nl *Netlist, n NetID) float64 {
	var b geom.BBox
	for _, pid := range nl.Nets[n].Pins {
		b.Expand(p.PinPos(nl, pid))
	}
	return b.HalfPerimeter()
}

// TotalDisplacement returns the summed Manhattan displacement from placement
// q to p over movable cells — the standard legalization-cost metric.
func (p *Placement) TotalDisplacement(nl *Netlist, q *Placement) float64 {
	total := 0.0
	for i := range nl.Cells {
		if nl.Cells[i].Fixed {
			continue
		}
		total += math.Abs(p.X[i]-q.X[i]) + math.Abs(p.Y[i]-q.Y[i])
	}
	return total
}

// MaxDisplacement returns the maximum Manhattan displacement from q to p
// over movable cells.
func (p *Placement) MaxDisplacement(nl *Netlist, q *Placement) float64 {
	maxd := 0.0
	for i := range nl.Cells {
		if nl.Cells[i].Fixed {
			continue
		}
		d := math.Abs(p.X[i]-q.X[i]) + math.Abs(p.Y[i]-q.Y[i])
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// ClampInto clamps every movable cell so its footprint stays inside region.
func (p *Placement) ClampInto(nl *Netlist, region geom.Rect) {
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if c.Fixed {
			continue
		}
		p.X[i] = geom.Clamp(p.X[i], region.Lo.X, region.Hi.X-c.W)
		p.Y[i] = geom.Clamp(p.Y[i], region.Lo.Y, region.Hi.Y-c.H)
	}
}

// CheckLegal verifies that the placement is legal with respect to core: every
// movable cell inside the region, bottom-aligned to a row, on the site grid,
// and no two cells overlapping. Returns nil if legal.
func (p *Placement) CheckLegal(nl *Netlist, core *geom.Core) error {
	const eps = 1e-6
	type placed struct {
		id   CellID
		x, w float64
	}
	byRow := make(map[int][]placed)
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if c.Fixed {
			continue
		}
		r := p.CellRect(nl, CellID(i))
		if !core.Region.ContainsRect(r) {
			return fmt.Errorf("placement: cell %q at %v outside core %v", c.Name, r, core.Region)
		}
		ri := core.RowIndex(p.Y[i] + eps)
		row := core.Rows[ri]
		if math.Abs(p.Y[i]-row.Y) > eps {
			return fmt.Errorf("placement: cell %q y=%g not row-aligned (nearest row y=%g)", c.Name, p.Y[i], row.Y)
		}
		if row.SiteW > 0 {
			k := (p.X[i] - row.X) / row.SiteW
			if math.Abs(k-math.Round(k)) > 1e-4 {
				return fmt.Errorf("placement: cell %q x=%g off site grid", c.Name, p.X[i])
			}
		}
		// Tall cells occupy several rows; register the span in each.
		nRows := int(math.Ceil(c.H/core.RowH() - eps))
		for dr := 0; dr < nRows && ri+dr < core.NumRows(); dr++ {
			byRow[ri+dr] = append(byRow[ri+dr], placed{CellID(i), p.X[i], c.W})
		}
	}
	// Scan rows in index order so the first-reported overlap is the same
	// pair on every run (map order would vary the error message).
	for r := 0; r < core.NumRows(); r++ {
		cells := byRow[r]
		sort.Slice(cells, func(a, b int) bool { return cells[a].x < cells[b].x })
		for k := 1; k < len(cells); k++ {
			prev, cur := cells[k-1], cells[k]
			if prev.x+prev.w > cur.x+eps {
				return fmt.Errorf("placement: cells %q and %q overlap in a row",
					nl.Cells[prev.id].Name, nl.Cells[cur.id].Name)
			}
		}
	}
	return nil
}
