// Package datapath implements the paper's first contribution: automatic
// extraction of datapath regularity from a flat gate-level netlist. The
// extractor recovers groups — arrays of bit slices — without user
// annotations, by combining bus inference (name-based when names carry bus
// indices, purely structural otherwise) with lock-step seed-and-grow
// propagation of isomorphic bit slices.
//
// A Group is a set of columns; every column holds one cell per bit, all
// structurally identical, and column k of every bit belongs to the same
// logical pipeline stage. The structure-aware placer aligns each column
// vertically and each bit horizontally.
package datapath

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"repro/internal/netlist"
)

// Sig is a structural signature; cells (or nets) with equal signatures are
// considered interchangeable slice elements.
type Sig uint64

// sizeClass quantizes cell geometry: identical library cells always share
// it, small numeric noise does not matter.
func sizeClass(v float64) uint64 {
	return uint64(math.Round(v * 16))
}

// CellSigs computes the structural signature of every cell: the library
// type, the footprint, and the sorted pin (name, direction) list — i.e. the
// master identity, independent of instance names AND of the surrounding
// nets. Keeping the signature master-level is deliberate: boundary cells of
// a slice (e.g. the input DFF column) connect to random-fanout nets, and a
// neighborhood-sensitive signature would split those columns apart. The
// discriminating power lives in the lock-step growth checks instead.
func CellSigs(nl *netlist.Netlist) []Sig {
	sigs := make([]Sig, nl.NumCells())
	type pinKey struct {
		name string
		dir  netlist.Dir
	}
	var keys []pinKey
	for ci := range nl.Cells {
		cell := &nl.Cells[ci]
		keys = keys[:0]
		for _, pid := range cell.Pins {
			pin := nl.Pin(pid)
			keys = append(keys, pinKey{name: pin.Name, dir: pin.Dir})
		}
		// Keys that compare equal are equal in every hashed field, so an
		// unstable sort hashes the same stream.
		slices.SortFunc(keys, func(a, b pinKey) int {
			if c := strings.Compare(a.name, b.name); c != 0 {
				return c
			}
			return cmp.Compare(a.dir, b.dir)
		})
		h := fnvOffset.str(cell.Type).
			u64(sizeClass(cell.W)).
			u64(sizeClass(cell.H)).
			u64(uint64(len(cell.Pins)))
		for _, k := range keys {
			h = h.str(k.name).u64(uint64(k.dir))
		}
		sigs[ci] = Sig(h)
	}
	return sigs
}

// NetSigs computes the structural signature of every net: its degree plus
// the sorted multiset of (endpoint cell signature, pin name, direction).
// Nets of the same bus — one per bit of a replicated slice — hash equal.
func NetSigs(nl *netlist.Netlist, cellSigs []Sig) []Sig {
	sigs := make([]Sig, nl.NumNets())
	type endKey struct {
		cellSig Sig
		pin     string
		dir     netlist.Dir
	}
	var keys []endKey
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		keys = keys[:0]
		for _, pid := range net.Pins {
			pin := nl.Pin(pid)
			var cs Sig
			if pin.Cell != netlist.NoCell {
				cs = cellSigs[pin.Cell]
			}
			keys = append(keys, endKey{cellSig: cs, pin: pin.Name, dir: pin.Dir})
		}
		slices.SortFunc(keys, func(a, b endKey) int {
			if c := cmp.Compare(a.cellSig, b.cellSig); c != 0 {
				return c
			}
			if c := strings.Compare(a.pin, b.pin); c != 0 {
				return c
			}
			return cmp.Compare(a.dir, b.dir)
		})
		h := fnvOffset.u64(uint64(net.Degree()))
		for _, k := range keys {
			h = h.u64(uint64(k.cellSig)).str(k.pin).u64(uint64(k.dir))
		}
		sigs[ni] = Sig(h)
	}
	return sigs
}

// fnv64a is a running 64-bit FNV-1a hash (the function hash/fnv's New64a
// computes), held as a value so hashing allocates nothing.
type fnv64a uint64

// FNV-1a 64-bit parameters.
const (
	fnvOffset fnv64a = 14695981039346656037
	fnvPrime  fnv64a = 1099511628211
)

// add hashes one byte.
func (h fnv64a) add(b byte) fnv64a {
	return (h ^ fnv64a(b)) * fnvPrime
}

// str hashes the bytes of s followed by a zero byte.
func (h fnv64a) str(s string) fnv64a {
	for i := 0; i < len(s); i++ {
		h = h.add(s[i])
	}
	return h.add(0)
}

// u64 hashes v as eight little-endian bytes.
func (h fnv64a) u64(v uint64) fnv64a {
	for i := 0; i < 8; i++ {
		h = h.add(byte(v >> (8 * i)))
	}
	return h
}
