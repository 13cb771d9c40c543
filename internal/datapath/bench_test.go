package datapath_test

import (
	"testing"

	"repro/internal/datapath"
	"repro/internal/gen"
)

// BenchmarkExtract runs extraction with the placer's options on the large
// design BenchmarkReadAux reads (internal/bookshelf largeConfig: 4.9k
// cells); generation is not timed.
func BenchmarkExtract(b *testing.B) {
	nl := gen.Generate(gen.Config{
		Name: "large", Seed: 5, Bits: 32,
		Units:       []gen.UnitKind{gen.Adder, gen.RegBank, gen.Shifter, gen.MuxTree},
		RandomCells: 4000,
	}).Netlist
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		datapath.Extract(nl, datapath.DefaultOptions())
	}
}
