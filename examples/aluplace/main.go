// aluplace: place a 16-bit ALU-style datapath (adder + shifter + operand
// mux + register bank, bus-chained) with both flows, print the side-by-side
// quality comparison, and render an ASCII floorplan of the structure-aware
// result showing the recovered bit-sliced arrays.
//
//	go run ./examples/aluplace
package main

import (
	"fmt"
	"log"
	"strings"

	dpplace "repro"
)

func main() {
	bench := dpplace.Generate(dpplace.BenchConfig{
		Name:        "alu16",
		Seed:        42,
		Bits:        16,
		Units:       []dpplace.UnitKind{dpplace.MuxTree, dpplace.Adder, dpplace.Shifter, dpplace.RegBank},
		RandomCells: 800,
	})
	fmt.Printf("alu16: %d cells, %d nets, %.0f%% datapath cells\n\n",
		bench.Netlist.NumCells(), bench.Netlist.NumNets(), bench.DatapathFraction()*100)

	type outcome struct {
		res *dpplace.Result
		rep dpplace.Report
	}
	run := func(mode dpplace.Mode) outcome {
		res, err := dpplace.Place(bench.Netlist, bench.Core, bench.Placement, dpplace.Options{Mode: mode})
		if err != nil {
			log.Fatalf("%v: %v", mode, err)
		}
		return outcome{res, dpplace.Evaluate(bench.Netlist, res.Placement, bench.Core, dpplace.ReportOptions{})}
	}
	base := run(dpplace.Baseline)
	sa := run(dpplace.StructureAware)

	fmt.Printf("%-22s %12s %12s %8s\n", "metric", "baseline", "struct-aware", "ratio")
	row := func(name string, b, s float64) {
		r := 0.0
		if b != 0 {
			r = s / b
		}
		fmt.Printf("%-22s %12.0f %12.0f %8.3f\n", name, b, s, r)
	}
	row("HPWL", base.res.HPWLFinal, sa.res.HPWLFinal)
	row("Steiner WL", base.rep.SteinerWL, sa.rep.SteinerWL)
	row("routed WL", base.rep.Routed.WirelengthDB, sa.rep.Routed.WirelengthDB)
	row("route overflow", base.rep.Routed.Overflow, sa.rep.Routed.Overflow)
	fmt.Printf("%-22s %12s %12d\n", "aligned groups", "-", len(sa.res.Extraction.Groups))
	fmt.Printf("%-22s %12s %12d\n\n", "grouped cells", "-", sa.res.GroupedCells)

	fmt.Println("structure-aware floorplan (letters = datapath groups, . = random logic):")
	fmt.Println(render(bench, sa.res))
}

// render draws the placement on a coarse character grid.
func render(bench *dpplace.Benchmark, res *dpplace.Result) string {
	const w, h = 96, 28
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	region := bench.Core.Region
	nl := bench.Netlist
	for i := range nl.Cells {
		if nl.Cells[i].Fixed {
			continue
		}
		x := int((res.Placement.X[i] - region.Lo.X) / region.W() * float64(w-1))
		y := int((res.Placement.Y[i] - region.Lo.Y) / region.H() * float64(h-1))
		if x < 0 || x >= w || y < 0 || y >= h {
			continue
		}
		ch := byte('.')
		if g := res.Extraction.CellGroup[i]; g >= 0 {
			ch = byte('A' + g%26)
		}
		// Groups overwrite random logic so the arrays stay visible.
		if grid[h-1-y][x] == ' ' || grid[h-1-y][x] == '.' {
			grid[h-1-y][x] = ch
		}
	}
	var sb strings.Builder
	sb.WriteString("+" + strings.Repeat("-", w) + "+\n")
	for _, line := range grid {
		sb.WriteString("|")
		sb.Write(line)
		sb.WriteString("|\n")
	}
	sb.WriteString("+" + strings.Repeat("-", w) + "+")
	return sb.String()
}
