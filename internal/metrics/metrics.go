// Package metrics assembles the quality report of a finished placement: the
// wirelength, routability and utilization numbers the evaluation tables are
// built from.
package metrics

import (
	"context"
	"fmt"

	"repro/internal/density"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/route"
)

// Report is the standard per-placement quality summary.
type Report struct {
	HPWL       float64
	SteinerWL  float64
	MaxUtil    float64
	Congestion route.CongestionStats
	// Routed is the global-router view: wirelength with congestion-driven
	// detours, plus residual overflow. It is the closest proxy to the
	// routed-wirelength numbers placement papers report.
	Routed route.GRouteResult
}

// Fixed parameters of the evaluation.
const (
	// gridDim is the side of the congestion, utilization and routing grid.
	gridDim = 32
	// wireWidth is the RUDY wire width and the router's track pitch.
	wireWidth = 1
	// rudyCapacity is the RUDY capacity per unit area. A fixed value keeps
	// congestion comparable across placers on the same design; the
	// absolute value only scales the numbers.
	rudyCapacity = 0.15
)

// Options tunes evaluation.
type Options struct {
	// RouteCapacityFactor scales the global router's edge capacities.
	// The default 0.8 is calibrated so the baseline flow is marginally
	// routable on the suite's mid-size designs (peak usage ≈ 1.2–1.5):
	// routability comparisons need observable overflow, and this is the
	// regime routability-driven placement papers evaluate in.
	RouteCapacityFactor float64
	// Obs, when non-nil, records evaluation spans and counters into the
	// flight recorder.
	Obs *obs.Recorder
	// Workers is the worker count for the parallel estimators (Steiner
	// wirelength, RUDY): 0 means GOMAXPROCS, 1 runs inline. The report is
	// bit-identical at every worker count.
	Workers int
}

// Evaluate computes the report for a placement.
func Evaluate(nl *netlist.Netlist, pl *netlist.Placement, chip *geom.Core, opt Options) Report {
	sp := opt.Obs.Span("metrics")
	defer sp.End()

	pool := par.New(opt.Workers)
	grid := geom.NewGrid(chip.Region, gridDim, gridDim)
	rudySpan := sp.Child("rudy")
	cm := route.RUDYPool(context.Background(), pool, nl, pl, grid, route.RUDYOptions{
		WireWidth: wireWidth,
		Capacity:  rudyCapacity,
	})
	rudySpan.End()
	if opt.RouteCapacityFactor <= 0 {
		opt.RouteCapacityFactor = 0.8
	}
	// The router pulls the recorder from its context and opens its own root
	// "route" span beside this one.
	gr := route.GlobalRouteCtx(obs.NewContext(context.Background(), opt.Obs),
		nl, pl, chip.Region, route.GRouteOptions{
			NX: gridDim, NY: gridDim, WirePitch: wireWidth,
			CapacityFactor: opt.RouteCapacityFactor,
		})
	stSpan := sp.Child("steiner")
	stwl := route.SteinerWLPool(context.Background(), pool, nl, pl)
	stSpan.End()
	rep := Report{
		HPWL:       pl.HPWL(nl),
		SteinerWL:  stwl,
		MaxUtil:    density.MaxUtilization(nl, pl, grid),
		Congestion: cm.Stats(),
		Routed:     *gr,
	}
	opt.Obs.Logf(obs.Debug, "metrics", "%s", rep)
	return rep
}

// String is the one-line log form of the report.
func (r Report) String() string {
	return fmt.Sprintf("HPWL=%.0f StWL=%.0f rWL=%.0f rOvfl=%.0f maxUtil=%.2f congACE5=%.2f",
		r.HPWL, r.SteinerWL, r.Routed.WirelengthDB, r.Routed.Overflow, r.MaxUtil, r.Congestion.ACE5)
}
