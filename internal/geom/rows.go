package geom

import (
	"fmt"
	"math"
	"sort"
)

// Row is one horizontal standard-cell row. Cells legalized into a row share
// its Y coordinate and must keep X within [X, X+W] on SiteW multiples.
type Row struct {
	Y     float64 // bottom edge of the row
	X     float64 // left edge
	W     float64 // usable width
	H     float64 // row (cell) height
	SiteW float64 // placement site width; 0 means continuous
}

// Right returns the x coordinate of the row's right edge.
func (r Row) Right() float64 { return r.X + r.W }

// Top returns the y coordinate of the row's top edge.
func (r Row) Top() float64 { return r.Y + r.H }

// Rect returns the row extent as a rectangle.
func (r Row) Rect() Rect { return NewRect(r.X, r.Y, r.Right(), r.Top()) }

// Core models the chip core area: the placeable region plus its uniform row
// structure. All placement stages share one Core.
type Core struct {
	Region Rect  // outer placeable region
	Rows   []Row // rows sorted by increasing Y
}

// NewCore builds a core region filled with uniform rows of height rowH and
// site width siteW. It panics if the region cannot hold a single row, since
// that is a programming error in benchmark construction.
func NewCore(region Rect, rowH, siteW float64) *Core {
	if rowH <= 0 || region.H() < rowH || region.Empty() {
		panic(fmt.Sprintf("geom: invalid core: region=%v rowH=%g", region, rowH))
	}
	n := int(region.H() / rowH)
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			Y:     region.Lo.Y + float64(i)*rowH,
			X:     region.Lo.X,
			W:     region.W(),
			H:     rowH,
			SiteW: siteW,
		}
	}
	return &Core{Region: region, Rows: rows}
}

// RowH returns the uniform row height.
func (c *Core) RowH() float64 {
	if len(c.Rows) == 0 {
		return 0
	}
	return c.Rows[0].H
}

// NumRows returns the number of rows.
func (c *Core) NumRows() int { return len(c.Rows) }

// RowIndex returns the index of the row whose span contains y, clamped to
// the valid range so out-of-core coordinates map to the nearest row.
func (c *Core) RowIndex(y float64) int {
	if len(c.Rows) == 0 {
		return 0
	}
	i := sort.Search(len(c.Rows), func(i int) bool {
		return c.Rows[i].Top() > y
	})
	if i >= len(c.Rows) {
		i = len(c.Rows) - 1
	}
	return i
}

// Area returns the total placeable row area.
func (c *Core) Area() float64 {
	a := 0.0
	for _, r := range c.Rows {
		a += r.W * r.H
	}
	return a
}

// Grid maps the core region onto a uniform nx×ny bin grid; it is the shared
// indexing scheme for density and congestion maps.
type Grid struct {
	Region Rect
	NX, NY int
	BinW   float64
	BinH   float64
}

// NewGrid builds a grid with nx×ny bins over region.
func NewGrid(region Rect, nx, ny int) Grid {
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	return Grid{
		Region: region,
		NX:     nx,
		NY:     ny,
		BinW:   region.W() / float64(nx),
		BinH:   region.H() / float64(ny),
	}
}

// Bins returns the total number of bins.
func (g Grid) Bins() int { return g.NX * g.NY }

// Index returns the flat bin index for bin column i, row j.
func (g Grid) Index(i, j int) int { return j*g.NX + i }

// Loc returns the bin column/row containing point p, clamped into the grid.
func (g Grid) Loc(p Point) (i, j int) {
	i = int((p.X - g.Region.Lo.X) / g.BinW)
	j = int((p.Y - g.Region.Lo.Y) / g.BinH)
	return clampInt(i, 0, g.NX-1), clampInt(j, 0, g.NY-1)
}

// BinRect returns the extent of bin (i, j).
func (g Grid) BinRect(i, j int) Rect {
	x0 := g.Region.Lo.X + float64(i)*g.BinW
	y0 := g.Region.Lo.Y + float64(j)*g.BinH
	return NewRect(x0, y0, x0+g.BinW, y0+g.BinH)
}

// Range returns the half-open bin index ranges [i0,i1)×[j0,j1) overlapped by
// r, clamped into the grid. Empty rectangles yield empty ranges.
func (g Grid) Range(r Rect) (i0, i1, j0, j1 int) {
	if r.Empty() {
		return 0, 0, 0, 0
	}
	i0 = int(math.Floor((r.Lo.X - g.Region.Lo.X) / g.BinW))
	i1 = int(math.Ceil((r.Hi.X - g.Region.Lo.X) / g.BinW))
	j0 = int(math.Floor((r.Lo.Y - g.Region.Lo.Y) / g.BinH))
	j1 = int(math.Ceil((r.Hi.Y - g.Region.Lo.Y) / g.BinH))
	i0 = clampInt(i0, 0, g.NX)
	i1 = clampInt(i1, 0, g.NX)
	j0 = clampInt(j0, 0, g.NY)
	j1 = clampInt(j1, 0, g.NY)
	return i0, i1, j0, j1
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
