package datapath_test

import (
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"repro/internal/datapath"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// TestSignaturesMatchFNVOracle recomputes every cell and net signature of
// the suite designs dp01–dp08 with hash/fnv and sort.Slice over the same
// byte stream, and requires the production signatures to equal them.
func TestSignaturesMatchFNVOracle(t *testing.T) {
	for _, cfg := range gen.Suite() {
		nl := gen.Generate(cfg).Netlist
		cells := datapath.CellSigs(nl)
		wantCells := oracleCellSigs(nl)
		for i := range wantCells {
			if cells[i] != wantCells[i] {
				t.Fatalf("%s: cell %d signature %#x, oracle %#x", cfg.Name, i, cells[i], wantCells[i])
			}
		}
		nets := datapath.NetSigs(nl, cells)
		for i, want := range oracleNetSigs(nl, wantCells) {
			if nets[i] != want {
				t.Fatalf("%s: net %d signature %#x, oracle %#x", cfg.Name, i, nets[i], want)
			}
		}
	}
}

func oracleCellSigs(nl *netlist.Netlist) []datapath.Sig {
	sigs := make([]datapath.Sig, nl.NumCells())
	type pinKey struct {
		name string
		dir  netlist.Dir
	}
	for ci := range nl.Cells {
		cell := &nl.Cells[ci]
		var keys []pinKey
		for _, pid := range cell.Pins {
			pin := nl.Pin(pid)
			keys = append(keys, pinKey{name: pin.Name, dir: pin.Dir})
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a].name != keys[b].name {
				return keys[a].name < keys[b].name
			}
			return keys[a].dir < keys[b].dir
		})
		h := fnv.New64a()
		oracleString(h, cell.Type)
		oracleU64(h, uint64(math.Round(cell.W*16)))
		oracleU64(h, uint64(math.Round(cell.H*16)))
		oracleU64(h, uint64(len(cell.Pins)))
		for _, k := range keys {
			oracleString(h, k.name)
			oracleU64(h, uint64(k.dir))
		}
		sigs[ci] = datapath.Sig(h.Sum64())
	}
	return sigs
}

func oracleNetSigs(nl *netlist.Netlist, cellSigs []datapath.Sig) []datapath.Sig {
	sigs := make([]datapath.Sig, nl.NumNets())
	type endKey struct {
		cellSig datapath.Sig
		pin     string
		dir     netlist.Dir
	}
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		var keys []endKey
		for _, pid := range net.Pins {
			pin := nl.Pin(pid)
			var cs datapath.Sig
			if pin.Cell != netlist.NoCell {
				cs = cellSigs[pin.Cell]
			}
			keys = append(keys, endKey{cellSig: cs, pin: pin.Name, dir: pin.Dir})
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a].cellSig != keys[b].cellSig {
				return keys[a].cellSig < keys[b].cellSig
			}
			if keys[a].pin != keys[b].pin {
				return keys[a].pin < keys[b].pin
			}
			return keys[a].dir < keys[b].dir
		})
		h := fnv.New64a()
		oracleU64(h, uint64(net.Degree()))
		for _, k := range keys {
			oracleU64(h, uint64(k.cellSig))
			oracleString(h, k.pin)
			oracleU64(h, uint64(k.dir))
		}
		sigs[ni] = datapath.Sig(h.Sum64())
	}
	return sigs
}

func oracleString(h interface{ Write([]byte) (int, error) }, s string) {
	h.Write([]byte(s))
	h.Write([]byte{0})
}

func oracleU64(h interface{ Write([]byte) (int, error) }, v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
}
