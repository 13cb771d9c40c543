package multilevel

import (
	"testing"

	"repro/internal/datapath"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// BenchmarkCoarsen builds the first V-cycle level of the large design
// BenchmarkReadAux reads (internal/bookshelf largeConfig: 4.9k cells) as
// buildHierarchy does: the clustering with its datapath groups as atomic
// seeds, then the projection onto the cluster netlist. Generation and
// extraction are not timed.
func BenchmarkCoarsen(b *testing.B) {
	nl := gen.Generate(gen.Config{
		Name: "large", Seed: 5, Bits: 32,
		Units:       []gen.UnitKind{gen.Adder, gen.RegBank, gen.Shifter, gen.MuxTree},
		RandomCells: 4000,
	}).Netlist
	atomic := atomicSets(datapath.Extract(nl, datapath.DefaultOptions()))
	var o Options
	o.fillDefaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netlist.ProjectClusters(nl, coarsen(nl, atomic, nil, o.ClusterRatio)); err != nil {
			b.Fatal(err)
		}
	}
}
