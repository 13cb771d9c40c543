// Package netlist models a flat gate-level design as a cell/pin/net
// hypergraph, the common substrate consumed by extraction, placement and
// evaluation. The representation is index-based (IDs into flat slices) for
// cache-friendly traversal of designs with 10^5+ cells.
//
// Conventions:
//   - Cell positions (held in Placement) refer to the cell's lower-left
//     corner, matching the Bookshelf standard.
//   - Pin offsets are relative to the cell's lower-left corner.
//   - Fixed cells (pads, macros) participate in nets but never move.
package netlist

import (
	"fmt"
	"math"
)

// CellID indexes a cell within a Netlist.
type CellID int32

// NetID indexes a net within a Netlist.
type NetID int32

// PinID indexes a pin within a Netlist.
type PinID int32

// NoCell is the sentinel for "no cell".
const NoCell CellID = -1

// NoNet is the sentinel for "no net".
const NoNet NetID = -1

// Dir is a pin direction.
type Dir uint8

// Pin directions.
const (
	DirInput Dir = iota
	DirOutput
	DirInout
)

// String names the pin direction.
func (d Dir) String() string {
	switch d {
	case DirInput:
		return "input"
	case DirOutput:
		return "output"
	case DirInout:
		return "inout"
	}
	return fmt.Sprintf("Dir(%d)", uint8(d))
}

// Cell is one placeable (or fixed) instance.
type Cell struct {
	Name  string
	Type  string  // library cell class, e.g. "AND2", "DFF"; used by extraction
	W, H  float64 // footprint
	Fixed bool    // pads/macros that must not move
	Pins  []PinID // pins on this cell, in declaration order
}

// Area returns the cell footprint area.
func (c *Cell) Area() float64 { return c.W * c.H }

// Pin is one connection point: it belongs to exactly one cell (or is a
// top-level terminal when Cell == NoCell) and one net.
type Pin struct {
	Cell   CellID
	Net    NetID
	Name   string // pin name within the cell, e.g. "A", "Y"
	Dir    Dir
	DX, DY float64 // offset from the owning cell's lower-left corner
}

// Net is one hyperedge connecting two or more pins.
type Net struct {
	Name   string
	Weight float64
	Pins   []PinID
}

// Degree returns the number of pins on the net.
func (n *Net) Degree() int { return len(n.Pins) }

// Netlist is the full design hypergraph.
type Netlist struct {
	Name  string
	Cells []Cell
	Nets  []Net
	Pins  []Pin

	cellByName map[string]CellID
	netByName  map[string]NetID
}

// New returns an empty netlist with the given design name.
func New(name string) *Netlist {
	return &Netlist{
		Name:       name,
		cellByName: make(map[string]CellID),
		netByName:  make(map[string]NetID),
	}
}

// Reserve grows the cell/net/pin slices' capacity ahead of a bulk load, and
// sizes an empty cell or net name index for that many names, so the load
// regrows neither. Counts are hints that bound allocation, not the final
// sizes; readers must cap hostile header counts before passing them here.
func (nl *Netlist) Reserve(cells, nets, pins int) {
	nl.Cells = growCap(nl.Cells, cells)
	nl.Nets = growCap(nl.Nets, nets)
	nl.Pins = growCap(nl.Pins, pins)
	if cells > 0 && len(nl.cellByName) == 0 {
		nl.cellByName = make(map[string]CellID, cells)
	}
	if nets > 0 && len(nl.netByName) == 0 {
		nl.netByName = make(map[string]NetID, nets)
	}
}

func growCap[T any](s []T, n int) []T {
	if n <= cap(s)-len(s) {
		return s
	}
	out := make([]T, len(s), len(s)+n)
	copy(out, s)
	return out
}

// NumCells returns the number of cells.
func (nl *Netlist) NumCells() int { return len(nl.Cells) }

// NumNets returns the number of nets.
func (nl *Netlist) NumNets() int { return len(nl.Nets) }

// NumPins returns the number of pins.
func (nl *Netlist) NumPins() int { return len(nl.Pins) }

// Cell returns the cell with the given id.
func (nl *Netlist) Cell(id CellID) *Cell { return &nl.Cells[id] }

// Net returns the net with the given id.
func (nl *Netlist) Net(id NetID) *Net { return &nl.Nets[id] }

// Pin returns the pin with the given id.
func (nl *Netlist) Pin(id PinID) *Pin { return &nl.Pins[id] }

// CellByName returns the id of the named cell, or NoCell.
func (nl *Netlist) CellByName(name string) CellID {
	if id, ok := nl.cellByName[name]; ok {
		return id
	}
	return NoCell
}

// NetByName returns the id of the named net, or NoNet.
func (nl *Netlist) NetByName(name string) NetID {
	if id, ok := nl.netByName[name]; ok {
		return id
	}
	return NoNet
}

// AddCell appends a cell and returns its id. Duplicate names are an error.
func (nl *Netlist) AddCell(name, typ string, w, h float64, fixed bool) (CellID, error) {
	if _, dup := nl.cellByName[name]; dup {
		return NoCell, fmt.Errorf("netlist: duplicate cell %q", name)
	}
	if !(w > 0) || !(h > 0) || math.IsInf(w, 0) || math.IsInf(h, 0) {
		// !(w > 0) also rejects NaN, which w <= 0 would let through.
		return NoCell, fmt.Errorf("netlist: cell %q has non-positive size %gx%g", name, w, h)
	}
	id := CellID(len(nl.Cells))
	nl.Cells = append(nl.Cells, Cell{Name: name, Type: typ, W: w, H: h, Fixed: fixed})
	nl.cellByName[name] = id
	return id, nil
}

// MustAddCell is AddCell for construction code where duplicates are bugs.
func (nl *Netlist) MustAddCell(name, typ string, w, h float64, fixed bool) CellID {
	id, err := nl.AddCell(name, typ, w, h, fixed)
	if err != nil {
		panic(err)
	}
	return id
}

// Endpoint describes one connection of a net under construction.
type Endpoint struct {
	Cell   CellID
	Pin    string
	Dir    Dir
	DX, DY float64
}

// AddNet appends a net connecting the given endpoints and returns its id.
// Weight <= 0 is normalized to 1.
func (nl *Netlist) AddNet(name string, weight float64, ends ...Endpoint) (NetID, error) {
	if _, dup := nl.netByName[name]; dup {
		return NoNet, fmt.Errorf("netlist: duplicate net %q", name)
	}
	if weight <= 0 {
		weight = 1
	}
	id := NetID(len(nl.Nets))
	net := Net{Name: name, Weight: weight, Pins: make([]PinID, 0, len(ends))}
	for _, e := range ends {
		if e.Cell != NoCell && (int(e.Cell) < 0 || int(e.Cell) >= len(nl.Cells)) {
			return NoNet, fmt.Errorf("netlist: net %q references invalid cell id %d", name, e.Cell)
		}
		pid := PinID(len(nl.Pins))
		nl.Pins = append(nl.Pins, Pin{
			Cell: e.Cell, Net: id, Name: e.Pin, Dir: e.Dir, DX: e.DX, DY: e.DY,
		})
		net.Pins = append(net.Pins, pid)
		if e.Cell != NoCell {
			nl.Cells[e.Cell].Pins = append(nl.Cells[e.Cell].Pins, pid)
		}
	}
	nl.Nets = append(nl.Nets, net)
	nl.netByName[name] = id
	return id, nil
}

// MustAddNet is AddNet for construction code where errors are bugs.
func (nl *Netlist) MustAddNet(name string, weight float64, ends ...Endpoint) NetID {
	id, err := nl.AddNet(name, weight, ends...)
	if err != nil {
		panic(err)
	}
	return id
}

// Validate checks structural invariants: index ranges, pin/net/cell
// cross-references, and net degrees. It returns the first violation found.
func (nl *Netlist) Validate() error {
	for i := range nl.Pins {
		p := &nl.Pins[i]
		if p.Cell != NoCell && (int(p.Cell) < 0 || int(p.Cell) >= len(nl.Cells)) {
			return fmt.Errorf("netlist: pin %d references invalid cell %d", i, p.Cell)
		}
		if int(p.Net) < 0 || int(p.Net) >= len(nl.Nets) {
			return fmt.Errorf("netlist: pin %d references invalid net %d", i, p.Net)
		}
	}
	for i := range nl.Nets {
		n := &nl.Nets[i]
		if len(n.Pins) == 0 {
			return fmt.Errorf("netlist: net %q has no pins", n.Name)
		}
		for _, pid := range n.Pins {
			if int(pid) < 0 || int(pid) >= len(nl.Pins) {
				return fmt.Errorf("netlist: net %q references invalid pin %d", n.Name, pid)
			}
			if nl.Pins[pid].Net != NetID(i) {
				return fmt.Errorf("netlist: net %q pin %d back-reference mismatch", n.Name, pid)
			}
		}
	}
	for i := range nl.Cells {
		c := &nl.Cells[i]
		for _, pid := range c.Pins {
			if int(pid) < 0 || int(pid) >= len(nl.Pins) {
				return fmt.Errorf("netlist: cell %q references invalid pin %d", c.Name, pid)
			}
			if nl.Pins[pid].Cell != CellID(i) {
				return fmt.Errorf("netlist: cell %q pin %d back-reference mismatch", c.Name, pid)
			}
		}
	}
	return nil
}

// RebuildIndex regenerates the name lookup maps; needed after deserializing
// a Netlist constructed field-by-field rather than via Add*.
func (nl *Netlist) RebuildIndex() {
	nl.cellByName = make(map[string]CellID, len(nl.Cells))
	for i := range nl.Cells {
		nl.cellByName[nl.Cells[i].Name] = CellID(i)
	}
	nl.netByName = make(map[string]NetID, len(nl.Nets))
	for i := range nl.Nets {
		nl.netByName[nl.Nets[i].Name] = NetID(i)
	}
}

// Driver returns the id of the pin driving net n (the first output pin), or
// -1 when the net has no output pin (e.g. a primary-input net).
func (nl *Netlist) Driver(n NetID) PinID {
	for _, pid := range nl.Nets[n].Pins {
		if nl.Pins[pid].Dir == DirOutput {
			return pid
		}
	}
	return -1
}

// MovableArea returns the total area of movable cells.
func (nl *Netlist) MovableArea() float64 {
	a := 0.0
	for i := range nl.Cells {
		if !nl.Cells[i].Fixed {
			a += nl.Cells[i].Area()
		}
	}
	return a
}

// NumMovable returns the number of movable cells.
func (nl *Netlist) NumMovable() int {
	n := 0
	for i := range nl.Cells {
		if !nl.Cells[i].Fixed {
			n++
		}
	}
	return n
}

// Stats summarizes a netlist for benchmark tables.
type Stats struct {
	Cells, Movable, Fixed int
	Nets, Pins            int
	AvgDegree             float64
	MaxDegree             int
	MovableArea           float64
}

// ComputeStats gathers summary statistics.
func (nl *Netlist) ComputeStats() Stats {
	s := Stats{
		Cells:       nl.NumCells(),
		Movable:     nl.NumMovable(),
		Nets:        nl.NumNets(),
		Pins:        nl.NumPins(),
		MovableArea: nl.MovableArea(),
	}
	s.Fixed = s.Cells - s.Movable
	for i := range nl.Nets {
		d := nl.Nets[i].Degree()
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	if s.Nets > 0 {
		s.AvgDegree = float64(s.Pins) / float64(s.Nets)
	}
	return s
}
