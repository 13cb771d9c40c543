// Package geom provides the planar geometry primitives shared by every
// placement stage: points, rectangles, standard-cell rows and the chip core
// area. All coordinates are float64 in database units; rows are horizontal,
// as in the Bookshelf standard-cell model.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the placement plane.
type Point struct {
	X, Y float64
}

// Manhattan returns the L1 distance between p and q.
func (p Point) Manhattan(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// String formats the point as "(x, y)".
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Rect is an axis-aligned rectangle with Lo as lower-left corner and Hi as
// upper-right corner. A Rect with Hi coordinates not greater than Lo
// coordinates is empty.
type Rect struct {
	Lo, Hi Point
}

// NewRect returns the rectangle spanning [x0,x1]×[y0,y1], normalizing the
// corner order.
func NewRect(x0, y0, x1, y1 float64) Rect {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	return Rect{Point{x0, y0}, Point{x1, y1}}
}

// W returns the rectangle width (zero if empty).
func (r Rect) W() float64 {
	if r.Hi.X < r.Lo.X {
		return 0
	}
	return r.Hi.X - r.Lo.X
}

// H returns the rectangle height (zero if empty).
func (r Rect) H() float64 {
	if r.Hi.Y < r.Lo.Y {
		return 0
	}
	return r.Hi.Y - r.Lo.Y
}

// Area returns the rectangle area.
func (r Rect) Area() float64 { return r.W() * r.H() }

// Empty reports whether the rectangle has no interior.
func (r Rect) Empty() bool { return r.Hi.X <= r.Lo.X || r.Hi.Y <= r.Lo.Y }

// Center returns the rectangle's center point.
func (r Rect) Center() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

// Contains reports whether p lies inside r (closed on Lo, open on Hi for
// well-defined binning of shared edges).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lo.X && p.X < r.Hi.X && p.Y >= r.Lo.Y && p.Y < r.Hi.Y
}

// ContainsRect reports whether s lies entirely inside r (closed comparison).
func (r Rect) ContainsRect(s Rect) bool {
	return s.Lo.X >= r.Lo.X && s.Hi.X <= r.Hi.X && s.Lo.Y >= r.Lo.Y && s.Hi.Y <= r.Hi.Y
}

// Intersect returns the overlap of r and s; the result may be empty.
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		Point{math.Max(r.Lo.X, s.Lo.X), math.Max(r.Lo.Y, s.Lo.Y)},
		Point{math.Min(r.Hi.X, s.Hi.X), math.Min(r.Hi.Y, s.Hi.Y)},
	}
}

// Overlap returns the overlap area of r and s.
func (r Rect) Overlap(s Rect) float64 { return r.Intersect(s).Area() }

// Inset returns r shrunk by m on every side. The result may be empty.
func (r Rect) Inset(m float64) Rect {
	return Rect{Point{r.Lo.X + m, r.Lo.Y + m}, Point{r.Hi.X - m, r.Hi.Y - m}}
}

// String formats the rectangle as its two corners.
func (r Rect) String() string {
	return fmt.Sprintf("[%s %s]", r.Lo, r.Hi)
}

// BBox is an accumulator for the bounding box of a point set. The zero BBox
// is empty and ready to use.
type BBox struct {
	init bool
	r    Rect
}

// Expand grows the box to include p.
func (b *BBox) Expand(p Point) {
	if !b.init {
		b.init = true
		b.r = Rect{p, p}
		return
	}
	if p.X < b.r.Lo.X {
		b.r.Lo.X = p.X
	}
	if p.Y < b.r.Lo.Y {
		b.r.Lo.Y = p.Y
	}
	if p.X > b.r.Hi.X {
		b.r.Hi.X = p.X
	}
	if p.Y > b.r.Hi.Y {
		b.r.Hi.Y = p.Y
	}
}

// ExpandRect grows the box to include r's corners.
func (b *BBox) ExpandRect(r Rect) {
	b.Expand(r.Lo)
	b.Expand(r.Hi)
}

// Empty reports whether nothing has been added.
func (b *BBox) Empty() bool { return !b.init }

// Rect returns the accumulated bounding box (the zero Rect when empty).
func (b *BBox) Rect() Rect { return b.r }

// HalfPerimeter returns the half-perimeter of the accumulated box, the
// per-net quantity summed by the HPWL metric.
func (b *BBox) HalfPerimeter() float64 {
	if !b.init {
		return 0
	}
	return b.r.W() + b.r.H()
}

// Clamp returns v limited to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
