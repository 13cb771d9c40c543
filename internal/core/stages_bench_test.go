package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/datapath"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/place/detail"
	"repro/internal/place/global"
	"repro/internal/place/legal"
)

// stageInput is the large design BenchmarkReadAux reads (internal/bookshelf
// largeConfig: 4.9k cells) taken through PlaceCtx's structure-aware steps
// up to each benchmarked stage: extraction, the quadratic start, bank
// folding and one global solve, then legalization.
type stageInput struct {
	b      *gen.Benchmark
	groups []global.AlignGroup
	global *netlist.Placement // spread, not yet legal
	legal  *netlist.Placement
}

// largeStageInput builds the stage input once for every benchmark of the
// package; none of that work is timed.
var largeStageInput = sync.OnceValues(func() (stageInput, error) {
	b := gen.Generate(gen.Config{
		Name: "large", Seed: 5, Bits: 32,
		Units:       []gen.UnitKind{gen.Adder, gen.RegBank, gen.Shifter, gen.MuxTree},
		RandomCells: 4000,
	})
	in := stageInput{b: b, global: b.Placement.Clone()}
	in.groups = global.AlignGroupsFromExtraction(datapath.Extract(b.Netlist, datapath.DefaultOptions()))
	global.InitQuadratic(b.Netlist, in.global, b.Core)
	in.groups = global.SplitWideGroups(b.Netlist, in.global, b.Core, in.groups, 0.95)
	if _, err := global.PlaceCtx(context.Background(), b.Netlist, in.global, b.Core,
		global.Options{Groups: in.groups, SkipQuadraticInit: true}); err != nil {
		return in, err
	}
	in.legal = in.global.Clone()
	_, err := legal.LegalizeCtx(context.Background(), b.Netlist, in.legal, b.Core, legal.Options{Groups: in.groups})
	return in, err
})

// BenchmarkLegalize legalizes the large design's structure-aware global
// placement, its datapath groups as rigid blocks first.
func BenchmarkLegalize(b *testing.B) {
	in, err := largeStageInput()
	if err != nil {
		b.Fatal(err)
	}
	pl := in.global.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(pl.X, in.global.X)
		copy(pl.Y, in.global.Y)
		b.StartTimer()
		if _, err := legal.LegalizeCtx(context.Background(), in.b.Netlist, pl, in.b.Core,
			legal.Options{Groups: in.groups}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetail runs PlaceCtx's generic detailed-placement sweeps over the
// large design's legalized placement, group cells locked.
func BenchmarkDetail(b *testing.B) {
	in, err := largeStageInput()
	if err != nil {
		b.Fatal(err)
	}
	pl := in.legal.Clone()
	opt := detail.Options{
		Locked: detail.LockedFromGroups(in.b.Netlist.NumCells(), in.groups),
		Passes: detailPasses,
		Ctx:    context.Background(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(pl.X, in.legal.X)
		copy(pl.Y, in.legal.Y)
		b.StartTimer()
		detail.Improve(in.b.Netlist, pl, in.b.Core, opt)
	}
}
