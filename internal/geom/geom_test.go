package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{4, 6}
	if got := p.Manhattan(q); got != 7 {
		t.Errorf("Manhattan = %g, want 7", got)
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(5, 7, 1, 2)
	if r.Lo != (Point{1, 2}) || r.Hi != (Point{5, 7}) {
		t.Fatalf("NewRect did not normalize: %v", r)
	}
	if r.W() != 4 || r.H() != 5 || r.Area() != 20 {
		t.Errorf("W/H/Area = %g/%g/%g", r.W(), r.H(), r.Area())
	}
}

func TestRectEmpty(t *testing.T) {
	if !(Rect{}).Empty() {
		t.Error("zero Rect should be empty")
	}
	if NewRect(0, 0, 1, 1).Empty() {
		t.Error("unit Rect should not be empty")
	}
	degenerate := Rect{Point{3, 0}, Point{3, 5}} // zero width
	if !degenerate.Empty() {
		t.Error("zero-width Rect should be empty")
	}
	if degenerate.W() != 0 {
		t.Errorf("degenerate W = %g", degenerate.W())
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{5, 5}, true},
		{Point{0, 0}, true},    // closed on Lo
		{Point{10, 10}, false}, // open on Hi
		{Point{10, 5}, false},
		{Point{-1, 5}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := NewRect(0, 0, 10, 10)
	b := NewRect(5, 5, 15, 15)
	got := a.Intersect(b)
	if got != NewRect(5, 5, 10, 10) {
		t.Errorf("Intersect = %v", got)
	}
	if a.Overlap(b) != 25 {
		t.Errorf("Overlap = %g, want 25", a.Overlap(b))
	}
	disjoint := NewRect(20, 20, 30, 30)
	if !a.Intersect(disjoint).Empty() {
		t.Error("disjoint intersect should be empty")
	}
	if a.Overlap(disjoint) != 0 {
		t.Error("disjoint overlap should be 0")
	}
}

func TestRectTranslateInset(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	if got := r.Inset(2); got != NewRect(2, 2, 8, 8) {
		t.Errorf("Inset = %v", got)
	}
	if !r.Inset(6).Empty() {
		t.Error("over-inset should be empty")
	}
}

// Property: intersection area is symmetric and never exceeds either area.
func TestOverlapProperties(t *testing.T) {
	f := func(x0, y0, x1, y1, x2, y2, x3, y3 float64) bool {
		a := NewRect(mod100(x0), mod100(y0), mod100(x1), mod100(y1))
		b := NewRect(mod100(x2), mod100(y2), mod100(x3), mod100(y3))
		ov := a.Overlap(b)
		return ov == b.Overlap(a) && ov <= a.Area()+1e-9 && ov <= b.Area()+1e-9 && ov >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mod100(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 100)
}

func TestBBox(t *testing.T) {
	var b BBox
	if !b.Empty() || b.HalfPerimeter() != 0 {
		t.Fatal("zero BBox should be empty with zero half-perimeter")
	}
	b.Expand(Point{3, 4})
	if b.Rect() != (Rect{Point{3, 4}, Point{3, 4}}) {
		t.Errorf("single-point bbox = %v", b.Rect())
	}
	b.Expand(Point{1, 8})
	b.Expand(Point{5, 2})
	want := Rect{Point{1, 2}, Point{5, 8}}
	if b.Rect() != want {
		t.Errorf("bbox = %v, want %v", b.Rect(), want)
	}
	if b.HalfPerimeter() != 10 {
		t.Errorf("half-perimeter = %g, want 10", b.HalfPerimeter())
	}
}

func TestBBoxMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		var b BBox
		minX, minY := math.Inf(1), math.Inf(1)
		maxX, maxY := math.Inf(-1), math.Inf(-1)
		for i := 0; i < n; i++ {
			p := Point{rng.Float64() * 100, rng.Float64() * 100}
			b.Expand(p)
			minX = math.Min(minX, p.X)
			minY = math.Min(minY, p.Y)
			maxX = math.Max(maxX, p.X)
			maxY = math.Max(maxY, p.Y)
		}
		want := (maxX - minX) + (maxY - minY)
		if math.Abs(b.HalfPerimeter()-want) > 1e-12 {
			t.Fatalf("trial %d: half-perimeter = %g, want %g", trial, b.HalfPerimeter(), want)
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Error("Clamp misbehaves")
	}
}

func TestNewCoreRows(t *testing.T) {
	c := NewCore(NewRect(0, 0, 100, 120), 12, 1)
	if c.NumRows() != 10 {
		t.Fatalf("NumRows = %d, want 10", c.NumRows())
	}
	if c.RowH() != 12 {
		t.Errorf("RowH = %g", c.RowH())
	}
	if c.Rows[0].Y != 0 || c.Rows[9].Y != 108 {
		t.Errorf("row Ys = %g..%g", c.Rows[0].Y, c.Rows[9].Y)
	}
	if c.Area() != 100*120 {
		t.Errorf("Area = %g", c.Area())
	}
}

func TestNewCorePanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for region shorter than a row")
		}
	}()
	NewCore(NewRect(0, 0, 100, 5), 12, 1)
}

func TestRowIndexAndNearest(t *testing.T) {
	c := NewCore(NewRect(0, 0, 100, 120), 12, 1)
	if got := c.RowIndex(0); got != 0 {
		t.Errorf("RowIndex(0) = %d", got)
	}
	if got := c.RowIndex(13); got != 1 {
		t.Errorf("RowIndex(13) = %d", got)
	}
	if got := c.RowIndex(119.9); got != 9 {
		t.Errorf("RowIndex(119.9) = %d", got)
	}
	if got := c.RowIndex(500); got != 9 {
		t.Errorf("RowIndex(500) = %d (should clamp)", got)
	}
	if got := c.RowIndex(-5); got != 0 {
		t.Errorf("RowIndex(-5) = %d (should clamp)", got)
	}
}

func TestGridLocAndIndex(t *testing.T) {
	g := NewGrid(NewRect(0, 0, 100, 100), 10, 10)
	if g.Bins() != 100 {
		t.Fatalf("Bins = %d", g.Bins())
	}
	i, j := g.Loc(Point{15, 95})
	if i != 1 || j != 9 {
		t.Errorf("Loc = (%d,%d), want (1,9)", i, j)
	}
	// Out-of-region points clamp.
	i, j = g.Loc(Point{-10, 500})
	if i != 0 || j != 9 {
		t.Errorf("clamped Loc = (%d,%d)", i, j)
	}
	if g.Index(3, 2) != 23 {
		t.Errorf("Index = %d", g.Index(3, 2))
	}
	br := g.BinRect(1, 2)
	if br != NewRect(10, 20, 20, 30) {
		t.Errorf("BinRect = %v", br)
	}
}

func TestGridRange(t *testing.T) {
	g := NewGrid(NewRect(0, 0, 100, 100), 10, 10)
	i0, i1, j0, j1 := g.Range(NewRect(15, 25, 35, 45))
	if i0 != 1 || i1 != 4 || j0 != 2 || j1 != 5 {
		t.Errorf("Range = %d,%d,%d,%d", i0, i1, j0, j1)
	}
	// Fully outside clamps to empty.
	i0, i1, _, _ = g.Range(NewRect(-50, 0, -10, 10))
	if i0 != 0 || i1 != 0 {
		t.Errorf("outside Range = %d,%d", i0, i1)
	}
	// Empty rect yields empty range.
	i0, i1, j0, j1 = g.Range(Rect{})
	if i0 != i1 || j0 != j1 {
		t.Errorf("empty rect Range = %d,%d,%d,%d", i0, i1, j0, j1)
	}
}

// Property: every random sub-rectangle's Range covers the bins of its corners.
func TestGridRangeCoversCorners(t *testing.T) {
	g := NewGrid(NewRect(0, 0, 100, 100), 7, 13)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		x0, y0 := rng.Float64()*100, rng.Float64()*100
		x1, y1 := rng.Float64()*100, rng.Float64()*100
		r := NewRect(x0, y0, x1, y1)
		if r.Empty() {
			continue
		}
		i0, i1, j0, j1 := g.Range(r)
		li, lj := g.Loc(r.Lo)
		if li < i0 || li >= i1 || lj < j0 || lj >= j1 {
			t.Fatalf("Lo corner bin (%d,%d) outside range [%d,%d)x[%d,%d)", li, lj, i0, i1, j0, j1)
		}
	}
}
