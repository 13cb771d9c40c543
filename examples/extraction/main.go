// extraction: run datapath extraction on a netlist whose names have been
// scrambled — the hard case where only structure is available — and score
// the recovered bit slices against the generator's ground truth.
//
//	go run ./examples/extraction
package main

import (
	"fmt"

	dpplace "repro"
)

func main() {
	cfg := dpplace.BenchConfig{
		Name:        "scrambled",
		Seed:        9,
		Bits:        16,
		Units:       []dpplace.UnitKind{dpplace.Adder, dpplace.MuxTree, dpplace.Shifter, dpplace.RegBank},
		RandomCells: 600,
		Scramble:    true, // strip every bus index from the net names
	}
	bench := dpplace.Generate(cfg)
	fmt.Printf("design: %d cells, %d nets, names scrambled\n\n",
		bench.Netlist.NumCells(), bench.Netlist.NumNets())

	// Name-based inference finds nothing on this netlist; structural
	// inference must carry the extraction alone.
	for _, mode := range []struct {
		name string
		opt  dpplace.ExtractOptions
	}{
		{"name-based only", func() dpplace.ExtractOptions {
			o := dpplace.DefaultExtractOptions()
			o.UseStructural = false
			return o
		}()},
		{"structural only", func() dpplace.ExtractOptions {
			o := dpplace.DefaultExtractOptions()
			o.UseNames = false
			return o
		}()},
		{"both (default)", dpplace.DefaultExtractOptions()},
	} {
		ext := dpplace.Extract(bench.Netlist, mode.opt)
		score := dpplace.ScoreExtraction(bench.Truth, ext.Labels())
		fmt.Printf("%-18s groups=%d grouped=%d  precision=%.3f recall=%.3f F1=%.3f\n",
			mode.name, len(ext.Groups), ext.NumGrouped(),
			score.Precision, score.Recall, score.F1)
		for i, g := range ext.Groups {
			fmt.Printf("    group %d: %3d bits × %2d stages\n", i, g.Bits(), g.Stages())
		}
	}

	fmt.Println("\nThe same design with names intact:")
	cfg.Scramble = false
	named := dpplace.Generate(cfg)
	ext := dpplace.Extract(named.Netlist, dpplace.DefaultExtractOptions())
	score := dpplace.ScoreExtraction(named.Truth, ext.Labels())
	fmt.Printf("%-18s groups=%d grouped=%d  precision=%.3f recall=%.3f F1=%.3f\n",
		"named netlist", len(ext.Groups), ext.NumGrouped(),
		score.Precision, score.Recall, score.F1)
}
