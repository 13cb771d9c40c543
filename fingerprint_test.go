package dpplace_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	dpplace "repro"
	"repro/internal/place/congestion"
	"repro/internal/place/global"
)

// fingerprint is what TestPlacementFingerprint pins per configuration.
// Every float is compared bit for bit, through its literal form.
type fingerprint struct {
	Hash          uint64 // FNV-64a over the X then Y float bits of every cell
	HPWLFinal     float64
	SteinerWL     float64
	RoutedOvfl    float64
	ACE5          float64
	MaxUtil       float64
	FuncEvals     int
	GroupedCells  int
	Levels        int // V-cycle levels; 0 for the flat flow
	Snapshots     int // congestion snapshots; 0 when the loop is off
	InflatedCells int
}

// placementHash is the FNV-64a hash of a placement's coordinate bits.
func placementHash(pl *dpplace.Placement) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range [][]float64{pl.X, pl.Y} {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// literal prints f as the Go composite literal the want table holds. %v on
// a float64 prints the shortest decimal that parses back to the same bits,
// so two fingerprints with equal literals are bit-identical.
func (f fingerprint) literal() string {
	return fmt.Sprintf("{Hash: %#x, HPWLFinal: %v, SteinerWL: %v, RoutedOvfl: %v, ACE5: %v, MaxUtil: %v, "+
		"FuncEvals: %d, GroupedCells: %d, Levels: %d, Snapshots: %d, InflatedCells: %d}",
		f.Hash, f.HPWLFinal, f.SteinerWL, f.RoutedOvfl, f.ACE5, f.MaxUtil,
		f.FuncEvals, f.GroupedCells, f.Levels, f.Snapshots, f.InflatedCells)
}

// TestPlacementFingerprint pins the placements of the bench design (dpgen
// seed 7, 16 bits, adder and register bank, 600 random cells: 911 cells, 895
// movable) in five configurations, {structure-aware, baseline} × {flat,
// V-cycle with congestion feedback} plus structure-aware flat with congestion
// feedback, at two workers, together with their evaluation. A change that
// only removes code or options must leave every value bit-identical; the CI
// determinism job also runs this test with the engine's helpers outnumbering
// processors.
func TestPlacementFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The pinned bits come from amd64, where Go compiles x*y+z to a
		// separate multiply and add (MULSD+ADDSD at GOAMD64 v1 and v3).
		// Other architectures may fuse them into one rounding: Go 1.24
		// emits FMADDD on arm64.
		t.Skipf("placement bits are pinned on amd64; on %s the compiler may fuse x*y+z (FMADDD on arm64), which rounds differently",
			runtime.GOARCH)
	}
	want := map[string]fingerprint{
		"structure-aware/flat": {Hash: 0xadc61f0eb6620a35, HPWLFinal: 47733.25000000002,
			SteinerWL: 51191.416666666635, RoutedOvfl: 144.75000000000003, ACE5: 12.288368363241197,
			MaxUtil: 1, FuncEvals: 1497, GroupedCells: 288},
		"baseline/flat": {Hash: 0xd0c47f20b4311efc, HPWLFinal: 42984.583333333336,
			SteinerWL: 47537.083333333314, RoutedOvfl: 86.49999999999977, ACE5: 12.164124721949635,
			MaxUtil: 1, FuncEvals: 1802},
		"structure-aware/vcycle+congestion": {Hash: 0x90c6b2f97ea56034, HPWLFinal: 47673.333333333314,
			SteinerWL: 51403.8333333333, RoutedOvfl: 49.24999999999994, ACE5: 11.510681075022232,
			MaxUtil: 1, FuncEvals: 1243, GroupedCells: 288, Levels: 2, Snapshots: 2, InflatedCells: 259},
		"baseline/vcycle+congestion": {Hash: 0x68ce1fb1c332f0ec, HPWLFinal: 42986.916666666664,
			SteinerWL: 47633.83333333329, RoutedOvfl: 60.349999999999866, ACE5: 11.997584162194395,
			MaxUtil: 1, FuncEvals: 955, Levels: 2, Snapshots: 4, InflatedCells: 267},
		"structure-aware/flat+congestion": {Hash: 0xbb24d61b60fd4d0b, HPWLFinal: 45754.25,
			SteinerWL: 48883.83333333332, RoutedOvfl: 150.05000000000015, ACE5: 12.608163623020907,
			MaxUtil: 1, FuncEvals: 1357, GroupedCells: 288, Snapshots: 2, InflatedCells: 386},
	}
	bench := dpplace.Generate(dpplace.BenchConfig{
		Name: "bench", Seed: 7, Bits: 16,
		Units:       []dpplace.UnitKind{dpplace.Adder, dpplace.RegBank},
		RandomCells: 600, Pads: 16,
	})
	if n := bench.Netlist.NumCells(); n != 911 {
		t.Fatalf("bench design has %d cells, want 911", n)
	}
	const workers = 2
	for _, c := range []struct {
		mode     dpplace.Mode
		ml, cong bool
	}{
		{dpplace.StructureAware, false, false},
		{dpplace.StructureAware, true, true},
		{dpplace.StructureAware, false, true},
		{dpplace.Baseline, false, false},
		{dpplace.Baseline, true, true},
	} {
		name := c.mode.String() + "/flat"
		opt := dpplace.Options{Mode: c.mode, Global: global.Options{Workers: workers}}
		if c.ml {
			name = c.mode.String() + "/vcycle"
			opt.Multilevel = true
		}
		if c.cong {
			name += "+congestion"
			opt.Global.Congestion = congestion.Options{Enable: true}
		}
		res, err := dpplace.PlaceCtx(context.Background(),
			bench.Netlist, bench.Core, bench.Placement, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep := dpplace.Evaluate(bench.Netlist, res.Placement, bench.Core,
			dpplace.ReportOptions{Workers: workers})
		got := fingerprint{
			Hash:         placementHash(res.Placement),
			HPWLFinal:    res.HPWLFinal,
			SteinerWL:    rep.SteinerWL,
			RoutedOvfl:   rep.Routed.Overflow,
			ACE5:         rep.Congestion.ACE5,
			MaxUtil:      rep.MaxUtil,
			FuncEvals:    res.GlobalResult.FuncEvals,
			GroupedCells: res.GroupedCells,
		}
		if res.Multilevel != nil {
			got.Levels = res.Multilevel.Levels
		}
		if cs := res.GlobalResult.Congestion; cs != nil {
			got.Snapshots, got.InflatedCells = cs.Snapshots, cs.InflatedCells
		}
		if g, w := got.literal(), want[name].literal(); g != w {
			t.Errorf("%s: placement fingerprint moved\n got  %s\n want %s\n"+
				"A change meant to move placements updates these values in the same "+
				"commit and says why in CHANGES.md; any other change must leave them bit-identical.",
				name, g, w)
		}
	}
}
