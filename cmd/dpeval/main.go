// Command dpeval scores an existing placement: read a Bookshelf design (and
// optionally a separate .pl with updated positions), check legality, and
// print the full quality report — the tool for comparing placements produced
// by different flows or external placers.
//
// Usage:
//
//	dpeval [-pl other.pl] [-capacity 0.8] [-json report.json] [-v] design.aux
//
// -json writes the report as machine-readable JSON (path "-" for stdout);
// -v adds debug logging of the evaluation stages on stderr.
//
// Routed overflow is reported per bin, not just as a total: the JSON report
// carries every nonzero bin of the routing grid (`routed_overflow_bins`) and
// the text output lists the hottest ones, so the CI routability gate and the
// EXPERIMENTS tables read congestion from this one code path.
//
// A -capacity that is not a finite number above 0 exits 2 before the design
// is read.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/bookshelf"
	"repro/internal/datapath"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/route"
)

func main() {
	os.Exit(run())
}

func run() int {
	plPath := flag.String("pl", "", "override placement from this .pl file")
	capacity := flag.Float64("capacity", 0.8, "global-router capacity factor")
	jsonPath := flag.String("json", "", "write the report as JSON to this path (\"-\" for stdout)")
	verbose := flag.Bool("v", false, "debug logging on stderr")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dpeval [flags] design.aux")
		return 2
	}
	// The router would silently run a non-positive factor at its default;
	// the negated comparison rejects NaN too.
	if !(*capacity > 0) || math.IsInf(*capacity, 1) {
		fmt.Fprintf(os.Stderr, "dpeval: -capacity %v out of range: must be finite and > 0\n", *capacity)
		return 2
	}

	rec := obs.New()
	level := obs.Info
	if *verbose {
		level = obs.Debug
	}
	rec.SetLog(os.Stderr, level)
	fatal := func(format string, args ...any) int {
		rec.Logf(obs.Error, "dpeval", format, args...)
		return 1
	}

	d, err := bookshelf.ReadAux(flag.Arg(0))
	if err != nil {
		return fatal("%v", err)
	}
	if d.Core == nil {
		return fatal("design has no .scl row definition")
	}
	if *plPath != "" {
		f, err := os.Open(*plPath)
		if err != nil {
			return fatal("%v", err)
		}
		err = bookshelf.ReadPl(f, d.Netlist, d.Placement)
		f.Close()
		if err != nil {
			return fatal("%v", err)
		}
	}

	legalErr := d.Placement.CheckLegal(d.Netlist, d.Core)
	legal := "yes"
	if legalErr != nil {
		legal = fmt.Sprintf("NO (%v)", legalErr)
	}
	rep := metrics.Evaluate(d.Netlist, d.Placement, d.Core, metrics.Options{
		RouteCapacityFactor: *capacity,
		Obs:                 rec,
	})
	ext := datapath.Extract(d.Netlist, datapath.DefaultOptions())
	align := alignmentOf(d, ext)

	hotBins := overflowBins(&rep.Routed)

	if *jsonPath != "" {
		out := struct {
			Design       string         `json:"design"`
			Legal        bool           `json:"legal"`
			LegalError   string         `json:"legal_error,omitempty"`
			Metrics      metrics.Report `json:"metrics"`
			OverflowBins []binOverflow  `json:"routed_overflow_bins,omitempty"`
			Groups       int            `json:"groups"`
			GroupedCells int            `json:"grouped_cells"`
			AlignRMS     float64        `json:"align_rms"`
		}{d.Netlist.Name, legalErr == nil, errString(legalErr), rep, hotBins,
			len(ext.Groups), ext.NumGrouped(), align}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return fatal("%v", err)
		}
		b = append(b, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(b)
			return 0
		}
		if err := os.WriteFile(*jsonPath, b, 0o644); err != nil {
			return fatal("%v", err)
		}
	}

	fmt.Printf("design:           %s (%d cells, %d nets)\n",
		d.Netlist.Name, d.Netlist.NumCells(), d.Netlist.NumNets())
	fmt.Printf("legal:            %s\n", legal)
	fmt.Printf("HPWL:             %.0f\n", rep.HPWL)
	fmt.Printf("Steiner WL:       %.0f\n", rep.SteinerWL)
	fmt.Printf("routed WL:        %.0f\n", rep.Routed.WirelengthDB)
	fmt.Printf("route overflow:   %.0f tracks over %d edges, %d bins (peak %.2fx)\n",
		rep.Routed.Overflow, rep.Routed.OverflowEdges, rep.Routed.OverflowBins, rep.Routed.MaxUsage)
	for i, b := range hottestBins(hotBins, 5) {
		if i == 0 {
			fmt.Printf("hottest bins:    ")
		} else {
			fmt.Printf(", ")
		}
		fmt.Printf("(%d,%d) %.1f", b.I, b.J, b.Overflow)
	}
	if len(hotBins) > 0 {
		fmt.Println()
	}
	fmt.Printf("max utilization:  %.2f\n", rep.MaxUtil)
	fmt.Printf("RUDY ACE5:        %.2f\n", rep.Congestion.ACE5)
	fmt.Printf("datapath groups:  %d (%d cells); alignment RMS %.3f\n",
		len(ext.Groups), ext.NumGrouped(), align)
	return 0
}

// binOverflow is one overflowed routing-grid bin in the JSON report.
type binOverflow struct {
	I        int     `json:"i"`
	J        int     `json:"j"`
	Overflow float64 `json:"overflow"` // tracks over capacity charged to this bin
}

// overflowBins extracts the nonzero entries of the router's per-bin overflow
// map, in bin-index order.
func overflowBins(r *route.GRouteResult) []binOverflow {
	var out []binOverflow
	for idx, v := range r.BinOverflow {
		if v > 0 {
			out = append(out, binOverflow{I: idx % r.GridNX, J: idx / r.GridNX, Overflow: v})
		}
	}
	return out
}

// hottestBins returns the n worst bins, ties broken by bin index so the
// listing is deterministic.
func hottestBins(bins []binOverflow, n int) []binOverflow {
	sorted := append([]binOverflow(nil), bins...)
	sort.SliceStable(sorted, func(a, b int) bool {
		return sorted[a].Overflow > sorted[b].Overflow
	})
	if len(sorted) > n {
		sorted = sorted[:n]
	}
	return sorted
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// alignmentOf scores how bit-aligned the extracted groups are in this
// placement (0 = perfect arrays).
func alignmentOf(d *bookshelf.Design, ext *datapath.Extraction) float64 {
	if len(ext.Groups) == 0 {
		return 0
	}
	pl := d.Placement
	n := 0
	total := 0.0
	pitch := d.Core.RowH()
	for _, g := range ext.Groups {
		for _, col := range g.Columns {
			// Column x spread.
			mu := 0.0
			for _, c := range col {
				mu += pl.X[c]
			}
			mu /= float64(len(col))
			for _, c := range col {
				dx := pl.X[c] - mu
				total += dx * dx
				n++
			}
			// Row pitch deviation.
			base := 0.0
			for b, c := range col {
				base += pl.Y[c] - float64(b)*pitch
			}
			base /= float64(len(col))
			for b, c := range col {
				dy := pl.Y[c] - (base + float64(b)*pitch)
				total += dy * dy
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sqrt(total / float64(n))
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}
