package netlist

import (
	"strings"
	"testing"
)

// buildTiny returns a 3-cell, 2-net netlist used across tests:
//
//	a --n1--> b --n2--> c
func buildTiny(t *testing.T) (*Netlist, CellID, CellID, CellID) {
	t.Helper()
	nl := New("tiny")
	a := nl.MustAddCell("a", "INV", 2, 1, false)
	b := nl.MustAddCell("b", "INV", 2, 1, false)
	c := nl.MustAddCell("c", "DFF", 4, 1, false)
	nl.MustAddNet("n1", 1,
		Endpoint{Cell: a, Pin: "Y", Dir: DirOutput, DX: 2, DY: 0.5},
		Endpoint{Cell: b, Pin: "A", Dir: DirInput, DX: 0, DY: 0.5},
	)
	nl.MustAddNet("n2", 1,
		Endpoint{Cell: b, Pin: "Y", Dir: DirOutput, DX: 2, DY: 0.5},
		Endpoint{Cell: c, Pin: "D", Dir: DirInput, DX: 0, DY: 0.5},
	)
	if err := nl.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return nl, a, b, c
}

func TestBuildAndLookup(t *testing.T) {
	nl, a, _, _ := buildTiny(t)
	if nl.NumCells() != 3 || nl.NumNets() != 2 || nl.NumPins() != 4 {
		t.Fatalf("counts = %d/%d/%d", nl.NumCells(), nl.NumNets(), nl.NumPins())
	}
	if nl.CellByName("a") != a {
		t.Errorf("CellByName(a) = %d", nl.CellByName("a"))
	}
	if nl.CellByName("zzz") != NoCell {
		t.Error("missing cell should return NoCell")
	}
	if nl.NetByName("n1") == NoNet {
		t.Error("NetByName(n1) missing")
	}
	if nl.NetByName("nope") != NoNet {
		t.Error("missing net should return NoNet")
	}
	if nl.Cell(a).Area() != 2 {
		t.Errorf("Area = %g", nl.Cell(a).Area())
	}
}

func TestDuplicateCellRejected(t *testing.T) {
	nl := New("d")
	nl.MustAddCell("x", "INV", 1, 1, false)
	if _, err := nl.AddCell("x", "INV", 1, 1, false); err == nil {
		t.Fatal("duplicate cell accepted")
	}
	if _, err := nl.AddCell("bad", "INV", 0, 1, false); err == nil {
		t.Fatal("zero-width cell accepted")
	}
}

func TestDuplicateNetRejected(t *testing.T) {
	nl := New("d")
	a := nl.MustAddCell("a", "INV", 1, 1, false)
	nl.MustAddNet("n", 1, Endpoint{Cell: a, Pin: "A", Dir: DirInput})
	if _, err := nl.AddNet("n", 1, Endpoint{Cell: a, Pin: "B", Dir: DirInput}); err == nil {
		t.Fatal("duplicate net accepted")
	}
	if _, err := nl.AddNet("m", 1, Endpoint{Cell: 99, Pin: "A", Dir: DirInput}); err == nil {
		t.Fatal("invalid cell ref accepted")
	}
}

func TestNetWeightDefault(t *testing.T) {
	nl := New("w")
	a := nl.MustAddCell("a", "INV", 1, 1, false)
	id := nl.MustAddNet("n", 0, Endpoint{Cell: a, Pin: "A", Dir: DirInput})
	if nl.Net(id).Weight != 1 {
		t.Errorf("default weight = %g, want 1", nl.Net(id).Weight)
	}
}

func TestDriver(t *testing.T) {
	nl, a, _, _ := buildTiny(t)
	n1 := nl.NetByName("n1")
	d := nl.Driver(n1)
	if d < 0 || nl.Pin(d).Cell != a {
		t.Fatalf("Driver(n1) = pin %d on cell %d, want cell %d", d, nl.Pin(d).Cell, a)
	}
	// A net with only inputs has no driver.
	c := nl.MustAddCell("x", "INV", 1, 1, false)
	n := nl.MustAddNet("ni", 1, Endpoint{Cell: c, Pin: "A", Dir: DirInput})
	if nl.Driver(n) != -1 {
		t.Error("input-only net should have no driver")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	nl, _, _, _ := buildTiny(t)
	nl.Pins[0].Net = 99
	if err := nl.Validate(); err == nil || !strings.Contains(err.Error(), "invalid net") {
		t.Fatalf("Validate missed bad pin->net: %v", err)
	}

	nl2, _, _, _ := buildTiny(t)
	nl2.Nets[0].Pins[0] = 999
	if err := nl2.Validate(); err == nil {
		t.Fatal("Validate missed bad net->pin")
	}

	nl3, _, _, _ := buildTiny(t)
	nl3.Nets = append(nl3.Nets, Net{Name: "empty"})
	if err := nl3.Validate(); err == nil || !strings.Contains(err.Error(), "no pins") {
		t.Fatalf("Validate missed empty net: %v", err)
	}

	nl4, _, _, _ := buildTiny(t)
	nl4.Pins[0].Cell = 2 // breaks the cell back-reference
	if err := nl4.Validate(); err == nil {
		t.Fatal("Validate missed cell back-reference mismatch")
	}
}

func TestRebuildIndex(t *testing.T) {
	nl, a, _, _ := buildTiny(t)
	// Simulate deserialization: wipe the maps.
	nl.cellByName = nil
	nl.netByName = nil
	nl.RebuildIndex()
	if nl.CellByName("a") != a {
		t.Error("RebuildIndex lost cell names")
	}
	if nl.NetByName("n2") == NoNet {
		t.Error("RebuildIndex lost net names")
	}
}

func TestStats(t *testing.T) {
	nl, _, _, _ := buildTiny(t)
	nl.MustAddCell("pad", "PAD", 1, 1, true)
	s := nl.ComputeStats()
	if s.Cells != 4 || s.Movable != 3 || s.Fixed != 1 {
		t.Errorf("cell stats = %+v", s)
	}
	if s.MaxDegree != 2 || s.AvgDegree != 2 {
		t.Errorf("degree stats = %+v", s)
	}
	if s.MovableArea != 2+2+4 {
		t.Errorf("MovableArea = %g", s.MovableArea)
	}
}

func TestMovableHelpers(t *testing.T) {
	nl, _, _, _ := buildTiny(t)
	nl.MustAddCell("pad", "PAD", 10, 10, true)
	if nl.NumMovable() != 3 {
		t.Errorf("NumMovable = %d", nl.NumMovable())
	}
	if nl.MovableArea() != 8 {
		t.Errorf("MovableArea = %g", nl.MovableArea())
	}
}

// Reserve sizes the name indexes of an empty netlist; lookups are unchanged.
func TestReserveKeepsLookups(t *testing.T) {
	nl := New("r")
	nl.Reserve(4, 2, 8)
	a := nl.MustAddCell("a", "INV", 1, 1, false)
	nl.Reserve(4, 2, 8) // not empty now: the index keeps its entries
	b := nl.MustAddCell("b", "INV", 1, 1, false)
	nl.MustAddNet("n", 1, Endpoint{Cell: a}, Endpoint{Cell: b})
	if nl.CellByName("a") != a || nl.CellByName("b") != b || nl.NetByName("n") != 0 {
		t.Fatalf("lookups after Reserve: a=%d b=%d n=%d", nl.CellByName("a"), nl.CellByName("b"), nl.NetByName("n"))
	}
}
