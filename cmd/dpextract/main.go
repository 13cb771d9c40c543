// Command dpextract runs datapath extraction on a Bookshelf design and
// reports the recovered groups.
//
// Usage:
//
//	dpextract [-structural-only] [-min-bits 4] [-min-stages 3] [-quiet] design.aux
//
// The flag defaults are datapath.DefaultOptions, so with no flags dpextract
// reports the groups dpplace places. The per-group breakdown prints by
// default; -quiet restricts output to the one-line summary. -min-bits and
// -min-stages below 1 exit 2 before the design is read.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bookshelf"
	"repro/internal/datapath"
	"repro/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	opt := datapath.DefaultOptions()
	structOnly := flag.Bool("structural-only", false, "ignore net names (pure structural inference)")
	minBits := flag.Int("min-bits", opt.MinBits, "minimum slice count per group")
	minStages := flag.Int("min-stages", opt.MinStages, "minimum columns per group")
	quiet := flag.Bool("quiet", false, "summary line only")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dpextract [flags] design.aux")
		return 2
	}
	// Extraction would silently run a value below 1 at its default.
	for _, c := range []struct {
		name string
		v    int
	}{{"min-bits", *minBits}, {"min-stages", *minStages}} {
		if c.v < 1 {
			fmt.Fprintf(os.Stderr, "dpextract: -%s %d out of range: must be >= 1\n", c.name, c.v)
			return 2
		}
	}

	rec := obs.New()
	rec.SetLog(os.Stderr, obs.Info)

	d, err := bookshelf.ReadAux(flag.Arg(0))
	if err != nil {
		rec.Logf(obs.Error, "dpextract", "%v", err)
		return 1
	}
	opt.MinBits = *minBits
	opt.MinStages = *minStages
	if *structOnly {
		opt.UseNames = false
	}

	sw := obs.StartStopwatch()
	ext := datapath.Extract(d.Netlist, opt)
	rec.Logf(obs.Debug, "dpextract", "extraction took %.3fs", sw.Seconds())

	fmt.Printf("design %s: %d cells, %d nets\n",
		d.Netlist.Name, d.Netlist.NumCells(), d.Netlist.NumNets())
	fmt.Printf("extracted %d groups covering %d cells (%.1f%% of movable)\n",
		len(ext.Groups), ext.NumGrouped(),
		100*float64(ext.NumGrouped())/float64(max(1, d.Netlist.NumMovable())))
	if *quiet {
		return 0
	}
	for gi, g := range ext.Groups {
		fmt.Printf("  group %2d: %3d bits x %3d stages (%d cells)\n",
			gi, g.Bits(), g.Stages(), g.NumCells())
	}
	return 0
}
