// Command dpgen generates a synthetic datapath-intensive benchmark and
// writes it out in Bookshelf format.
//
// Usage:
//
//	dpgen -name dp01 -out ./bench [-seed 7] [-bits 16] [-units adder,muxtree]
//	      [-random 2000] [-pads 16] [-scramble]
//	dpgen -suite -out ./bench     # write the whole dp01..dp08 suite
//
// Usage errors exit 2 before anything is written: -bits must lie in
// [1, 512], -random be >= 0, -pads >= 1, and -units must list known units
// and name one unless -random is positive.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/bookshelf"
	"repro/internal/gen"
)

func main() {
	name := flag.String("name", "bench", "design name")
	out := flag.String("out", ".", "output directory")
	seed := flag.Int64("seed", 7, "generator seed")
	bits := flag.Int("bits", 16, "datapath width")
	units := flag.String("units", "adder,muxtree", "comma-separated unit kinds (adder,muxtree,shifter,regbank)")
	random := flag.Int("random", 1000, "random-logic cells")
	pads := flag.Int("pads", 16, "IO pads")
	scramble := flag.Bool("scramble", false, "strip bus indices from net names")
	suite := flag.Bool("suite", false, "generate the full dp01..dp08 suite instead")
	flag.Parse()

	if *suite {
		for _, cfg := range gen.Suite() {
			write(cfg, *out)
		}
		return
	}

	kinds, err := checkRanges(*bits, *random, *pads, *units)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpgen: %v\n", err)
		os.Exit(2)
	}
	write(gen.Config{
		Name: *name, Seed: *seed, Bits: *bits, Units: kinds,
		RandomCells: *random, Pads: *pads, Scramble: *scramble,
	}, *out)
}

// checkRanges parses the -units list and rejects an unknown unit, numeric
// flag values outside their range, which the generator would otherwise
// silently replace with its default, and a design with no movable cell,
// which it cannot place in a core.
func checkRanges(bits, random, pads int, units string) ([]gen.UnitKind, error) {
	kinds, err := gen.ParseUnits(strings.Split(units, ","))
	switch {
	case err != nil:
		return nil, fmt.Errorf("-units: %w", err)
	case bits < 1 || bits > gen.MaxBits:
		return nil, fmt.Errorf("-bits %d out of range: must be in [1, %d]", bits, gen.MaxBits)
	case random < 0:
		return nil, fmt.Errorf("-random %d out of range: must be >= 0", random)
	case pads < 1:
		return nil, fmt.Errorf("-pads %d out of range: must be >= 1", pads)
	case len(kinds) == 0 && random == 0:
		return nil, errors.New("-units names no unit and -random is 0: the design would have no movable cell")
	}
	return kinds, nil
}

func write(cfg gen.Config, dir string) {
	b := gen.Generate(cfg)
	d := &bookshelf.Design{Netlist: b.Netlist, Placement: b.Placement, Core: b.Core}
	path, err := bookshelf.WriteAux(dir, cfg.Name, d)
	if err != nil {
		log.Fatal(err)
	}
	s := b.Netlist.ComputeStats()
	fmt.Printf("%s: %d cells, %d nets, %d pins, datapath fraction %.1f%% -> %s\n",
		cfg.Name, s.Cells, s.Nets, s.Pins, b.DatapathFraction()*100, path)
}
