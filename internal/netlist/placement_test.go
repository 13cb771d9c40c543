package netlist

import (
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestPinPosAndBBox(t *testing.T) {
	nl, a, b, _ := buildTiny(t)
	pl := NewPlacement(nl)
	pl.SetLoc(a, geom.Point{X: 0, Y: 0})
	pl.SetLoc(b, geom.Point{X: 10, Y: 5})

	n1 := nl.NetByName("n1")
	// Pin of a on n1 is at (0+2, 0+0.5); pin of b at (10+0, 5+0.5).
	bb := pl.NetBBox(nl, n1)
	want := geom.Rect{Lo: geom.Point{X: 2, Y: 0.5}, Hi: geom.Point{X: 10, Y: 5.5}}
	if bb != want {
		t.Fatalf("NetBBox = %v, want %v", bb, want)
	}
	if got := pl.NetHPWL(nl, n1); got != 13 {
		t.Errorf("NetHPWL = %g, want 13", got)
	}
}

func TestTopLevelTerminalPin(t *testing.T) {
	nl := New("terminal")
	a := nl.MustAddCell("a", "INV", 2, 1, false)
	nl.MustAddNet("n", 1,
		Endpoint{Cell: NoCell, Pin: "IO", Dir: DirInput, DX: 50, DY: 60},
		Endpoint{Cell: a, Pin: "A", Dir: DirInput, DX: 0, DY: 0},
	)
	pl := NewPlacement(nl)
	pl.SetLoc(a, geom.Point{X: 10, Y: 10})
	n := nl.NetByName("n")
	if got := pl.NetHPWL(nl, n); got != 40+50 {
		t.Errorf("HPWL with terminal = %g, want 90", got)
	}
}

func TestHPWLWeighted(t *testing.T) {
	nl := New("w")
	a := nl.MustAddCell("a", "INV", 1, 1, false)
	b := nl.MustAddCell("b", "INV", 1, 1, false)
	nl.MustAddNet("n", 3,
		Endpoint{Cell: a, Pin: "Y", Dir: DirOutput},
		Endpoint{Cell: b, Pin: "A", Dir: DirInput},
	)
	pl := NewPlacement(nl)
	pl.SetLoc(b, geom.Point{X: 4, Y: 3})
	if got := pl.HPWL(nl); got != 3*(4+3) {
		t.Errorf("weighted HPWL = %g, want 21", got)
	}
}

func TestHPWLSkipsSinglePinNets(t *testing.T) {
	nl := New("s")
	a := nl.MustAddCell("a", "INV", 1, 1, false)
	nl.MustAddNet("n", 1, Endpoint{Cell: a, Pin: "A", Dir: DirInput})
	pl := NewPlacement(nl)
	pl.SetLoc(a, geom.Point{X: 100, Y: 100})
	if got := pl.HPWL(nl); got != 0 {
		t.Errorf("single-pin HPWL = %g, want 0", got)
	}
}

func TestCloneAndCopy(t *testing.T) {
	nl, a, _, _ := buildTiny(t)
	pl := NewPlacement(nl)
	pl.SetLoc(a, geom.Point{X: 1, Y: 2})
	cl := pl.Clone()
	cl.SetLoc(a, geom.Point{X: 9, Y: 9})
	if pl.X[a] != 1 || pl.Y[a] != 2 {
		t.Error("Clone aliased the original")
	}
}

func TestDisplacement(t *testing.T) {
	nl, a, b, c := buildTiny(t)
	p := NewPlacement(nl)
	q := NewPlacement(nl)
	q.SetLoc(a, geom.Point{X: 3, Y: 4})
	q.SetLoc(b, geom.Point{X: 1, Y: 0})
	_ = c
	if got := p.TotalDisplacement(nl, q); got != 7+1 {
		t.Errorf("TotalDisplacement = %g, want 8", got)
	}
	if got := p.MaxDisplacement(nl, q); got != 7 {
		t.Errorf("MaxDisplacement = %g, want 7", got)
	}
}

func TestDisplacementIgnoresFixed(t *testing.T) {
	nl := New("f")
	a := nl.MustAddCell("pad", "PAD", 1, 1, true)
	p := NewPlacement(nl)
	q := NewPlacement(nl)
	q.SetLoc(a, geom.Point{X: 100, Y: 100})
	if got := p.TotalDisplacement(nl, q); got != 0 {
		t.Errorf("fixed displacement counted: %g", got)
	}
}

func TestClampInto(t *testing.T) {
	nl, a, b, _ := buildTiny(t)
	pl := NewPlacement(nl)
	pl.SetLoc(a, geom.Point{X: -5, Y: -5})
	pl.SetLoc(b, geom.Point{X: 99, Y: 99})
	pl.ClampInto(nl, geom.NewRect(0, 0, 50, 50))
	if pl.X[a] != 0 || pl.Y[a] != 0 {
		t.Errorf("a not clamped: (%g,%g)", pl.X[a], pl.Y[a])
	}
	// b is 2x1, so max X is 48, max Y is 49.
	if pl.X[b] != 48 || pl.Y[b] != 49 {
		t.Errorf("b not clamped: (%g,%g)", pl.X[b], pl.Y[b])
	}
}

func legalTestCore() *geom.Core {
	return geom.NewCore(geom.NewRect(0, 0, 100, 100), 10, 1)
}

func TestCheckLegalAccepts(t *testing.T) {
	nl, a, b, c := buildTiny(t)
	for _, id := range []CellID{a, b, c} {
		nl.Cells[id].H = 10
	}
	pl := NewPlacement(nl)
	pl.SetLoc(a, geom.Point{X: 0, Y: 0})
	pl.SetLoc(b, geom.Point{X: 2, Y: 0})
	pl.SetLoc(c, geom.Point{X: 4, Y: 10})
	if err := pl.CheckLegal(nl, legalTestCore()); err != nil {
		t.Fatalf("legal placement rejected: %v", err)
	}
}

func TestCheckLegalRejectsOverlap(t *testing.T) {
	nl, a, b, _ := buildTiny(t)
	nl.Cells[a].H = 10
	nl.Cells[b].H = 10
	pl := NewPlacement(nl)
	pl.SetLoc(a, geom.Point{X: 0, Y: 0})
	pl.SetLoc(b, geom.Point{X: 1, Y: 0}) // overlaps a (width 2)
	err := pl.CheckLegal(nl, legalTestCore())
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlap not caught: %v", err)
	}
}

func TestCheckLegalRejectsOffRow(t *testing.T) {
	nl, a, _, _ := buildTiny(t)
	nl.Cells[a].H = 10
	pl := NewPlacement(nl)
	pl.SetLoc(a, geom.Point{X: 0, Y: 3.5})
	err := pl.CheckLegal(nl, legalTestCore())
	if err == nil || !strings.Contains(err.Error(), "row-aligned") {
		t.Fatalf("off-row not caught: %v", err)
	}
}

func TestCheckLegalRejectsOutside(t *testing.T) {
	nl, a, _, _ := buildTiny(t)
	nl.Cells[a].H = 10
	pl := NewPlacement(nl)
	pl.SetLoc(a, geom.Point{X: 99.5, Y: 0})
	err := pl.CheckLegal(nl, legalTestCore())
	if err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("outside not caught: %v", err)
	}
}

func TestCheckLegalRejectsOffSite(t *testing.T) {
	nl, a, _, _ := buildTiny(t)
	nl.Cells[a].H = 10
	pl := NewPlacement(nl)
	pl.SetLoc(a, geom.Point{X: 1.37, Y: 0})
	err := pl.CheckLegal(nl, legalTestCore())
	if err == nil || !strings.Contains(err.Error(), "site grid") {
		t.Fatalf("off-site not caught: %v", err)
	}
}

func TestCheckLegalMultiRowCell(t *testing.T) {
	nl := New("tall")
	a := nl.MustAddCell("tall", "MACRO", 10, 20, false) // spans 2 rows
	b := nl.MustAddCell("b", "INV", 2, 10, false)
	_ = nl.MustAddNet("n", 1,
		Endpoint{Cell: a, Pin: "A", Dir: DirInput},
		Endpoint{Cell: b, Pin: "Y", Dir: DirOutput},
	)
	pl := NewPlacement(nl)
	pl.SetLoc(a, geom.Point{X: 0, Y: 0})
	pl.SetLoc(b, geom.Point{X: 5, Y: 10}) // overlaps the tall cell's second row
	err := pl.CheckLegal(nl, legalTestCore())
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("multi-row overlap not caught: %v", err)
	}
	pl.SetLoc(b, geom.Point{X: 10, Y: 10})
	if err := pl.CheckLegal(nl, legalTestCore()); err != nil {
		t.Fatalf("legal multi-row arrangement rejected: %v", err)
	}
}

func TestCellRectAndCenter(t *testing.T) {
	nl, a, _, _ := buildTiny(t)
	pl := NewPlacement(nl)
	pl.SetLoc(a, geom.Point{X: 10, Y: 20})
	r := pl.CellRect(nl, a)
	if r != geom.NewRect(10, 20, 12, 21) {
		t.Errorf("CellRect = %v", r)
	}
	c := pl.CellCenter(nl, a)
	if math.Abs(c.X-11) > 1e-12 || math.Abs(c.Y-20.5) > 1e-12 {
		t.Errorf("CellCenter = %v", c)
	}
}
