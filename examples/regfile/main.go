// regfile: sweep the datapath fraction of a register-file-dominated design
// and chart where structure-aware placement starts to pay — the crossover
// the paper's evaluation turns on. For each point the design keeps roughly
// the same cell count while the ratio of register-bank cells to random
// logic grows.
//
//	go run ./examples/regfile
package main

import (
	"fmt"
	"log"

	dpplace "repro"
)

func main() {
	const totalCells = 1600
	// One 16-bit register bank is ≈ 170 cells.
	const bankCells = 170

	fmt.Printf("%-8s %-8s %10s %10s %12s %12s\n",
		"target", "actual", "HPWL", "routedWL", "ovfl(base)", "ovfl(SA)")
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7} {
		banks := int(frac*totalCells/bankCells + 0.5)
		if banks < 1 {
			banks = 1
		}
		kinds := make([]dpplace.UnitKind, banks)
		for i := range kinds {
			// Mostly register banks with the occasional adder between them,
			// a register-file + accumulate structure.
			if i%3 == 2 {
				kinds[i] = dpplace.Adder
			} else {
				kinds[i] = dpplace.RegBank
			}
		}
		cfg := dpplace.BenchConfig{
			Name:        fmt.Sprintf("rf%.0f", frac*100),
			Seed:        700 + int64(frac*100),
			Bits:        16,
			Units:       kinds,
			RandomCells: totalCells - banks*bankCells,
		}
		bench := dpplace.Generate(cfg)

		base, err := dpplace.Place(bench.Netlist, bench.Core, bench.Placement,
			dpplace.Options{Mode: dpplace.Baseline})
		if err != nil {
			log.Fatal(err)
		}
		sa, err := dpplace.Place(bench.Netlist, bench.Core, bench.Placement,
			dpplace.Options{Mode: dpplace.StructureAware})
		if err != nil {
			log.Fatal(err)
		}
		baseRep := dpplace.Evaluate(bench.Netlist, base.Placement, bench.Core, dpplace.ReportOptions{})
		saRep := dpplace.Evaluate(bench.Netlist, sa.Placement, bench.Core, dpplace.ReportOptions{})

		fmt.Printf("%-8s %-8s %9.3fx %9.3fx %12.0f %12.0f\n",
			fmt.Sprintf("%.0f%%", frac*100),
			fmt.Sprintf("%.0f%%", bench.DatapathFraction()*100),
			sa.HPWLFinal/base.HPWLFinal,
			saRep.Routed.WirelengthDB/baseRep.Routed.WirelengthDB,
			baseRep.Routed.Overflow, saRep.Routed.Overflow)
	}
	fmt.Println("\nShape to look for: the overflow column favors structure-aware")
	fmt.Println("placement more and more as the register-file fraction grows, while")
	fmt.Println("the HPWL cost stays within a few percent.")
}
