// Quickstart: generate a small datapath-intensive design, run the
// structure-aware placement pipeline, and print the quality report.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	dpplace "repro"
)

func main() {
	// 1. A benchmark: an 8-bit adder and operand selector chained through
	//    buses, embedded in 400 cells of random logic.
	bench := dpplace.Generate(dpplace.BenchConfig{
		Name:        "quickstart",
		Seed:        1,
		Bits:        8,
		Units:       []dpplace.UnitKind{dpplace.Adder, dpplace.MuxTree},
		RandomCells: 400,
	})
	fmt.Printf("design: %d cells, %d nets, %.0f%% datapath\n",
		bench.Netlist.NumCells(), bench.Netlist.NumNets(), bench.DatapathFraction()*100)

	// 2. The full structure-aware flow: extraction → aligned analytical
	//    global placement → structure-preserving legalization → detailed
	//    placement. One call.
	res, err := dpplace.Place(bench.Netlist, bench.Core, bench.Placement, dpplace.Options{
		Mode: dpplace.StructureAware,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. What came out.
	fmt.Printf("extracted: %d groups covering %d cells\n",
		len(res.Extraction.Groups), res.GroupedCells)
	for i, g := range res.Extraction.Groups {
		fmt.Printf("  group %d: %d bits x %d stages\n", i, g.Bits(), g.Stages())
	}
	fmt.Printf("HPWL: global %.0f -> legal %.0f -> final %.0f\n",
		res.HPWLGlobal, res.HPWLLegal, res.HPWLFinal)
	fmt.Printf("legal: %v (alignment RMS %.3f — 0 means perfectly bit-aligned)\n",
		res.LegalityChecked, res.AlignmentRMS)

	rep := dpplace.Evaluate(bench.Netlist, res.Placement, bench.Core, dpplace.ReportOptions{})
	fmt.Printf("metrics: %v\n", rep)
	fmt.Printf("time: %.2fs total (extract %.0fms, global %.2fs, legal %.0fms, detail %.0fms)\n",
		res.Times.Total().Seconds(),
		res.Times.Extract.Seconds()*1000,
		res.Times.Global.Seconds(),
		res.Times.Legalize.Seconds()*1000,
		res.Times.Detail.Seconds()*1000)
}
