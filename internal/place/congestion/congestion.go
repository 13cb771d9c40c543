// Package congestion implements the routability feedback loop of global
// placement: periodic RUDY snapshots of the evolving placement, a monotone
// capped cell-inflation schedule for cells sitting in over-demand bins. The
// controller only *decides* (which cells inflate, by how much, when to
// stop); applying the decision is the engine's job — it feeds Scale to
// density.Potential and invalidates its own caches (DESIGN.md §15).
//
// Everything here is deterministic: snapshot cadence depends only on the
// outer-iteration index, the RUDY estimator is bit-identical at every worker
// count, and the inflation sweep visits cells in ascending index order with
// no data-dependent float comparisons beyond the shared snapshot.
package congestion

import (
	"context"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/route"
)

// Fixed parameters of the feedback loop.
const (
	// interval is the outer-iteration cadence: a snapshot fires every
	// interval-th outer iteration. The maturity gate (MaxDensOverflow)
	// already delays the first snapshot until late in the λ schedule, so
	// the cadence within the remaining iterations is tight.
	interval = 2
	// inflateStep scales the per-snapshot multiplicative growth: a cell in
	// a bin at twice the hot threshold grows by the full (1+inflateStep)
	// factor, shallower excesses grow proportionally less. Tuned with
	// hotQuantile on the seed-7 bench for roughly −19% routed overflow at
	// under 1% HPWL cost.
	inflateStep = 0.15
	// hotQuantile selects hot bins relatively: a bin is hot when its demand
	// exceeds this quantile of the snapshot's per-bin demand distribution —
	// the worst 8% of bins, the same tail the ACE metrics watch. Relative
	// selection is what makes the loop portable: absolute RUDY demand
	// scales with the capacity calibration, but the hot tail is hot under
	// any calibration.
	hotQuantile = 0.92
	// hotThreshold is an absolute floor under the quantile: bins below this
	// normalized demand are never hot even when the design is so
	// uncongested that the quantile lands there. 1.0 means demand exceeds
	// capacity.
	hotThreshold = 1.0
	// rudyWireWidth is the wire width of the RUDY estimate, one database
	// unit as in the evaluation.
	rudyWireWidth = 1
)

// Options configures the feedback loop. The zero value with Enable=false is
// inert; New applies the documented defaults to zero fields.
type Options struct {
	// Enable turns the loop on. All other fields are ignored when false.
	Enable bool
	// MaxInflate caps the per-cell area multiplier (default 2.0). The
	// schedule is monotone non-decreasing and never exceeds this cap.
	MaxInflate float64
	// MaxDensOverflow gates the cadence on placement maturity: snapshots
	// fire only once the committed placement's exact density overflow has
	// dropped below this (default 0.35). Early in the λ schedule cells are
	// still clustered, RUDY flags most of the core hot, and inflating on
	// that signal is indistinguishable from uniform area scaling — all HPWL
	// cost, no routability gain.
	MaxDensOverflow float64
	// CoolDown freezes the schedule after this many consecutive snapshots
	// without RUDY-overflow improvement (default 2), so inflation that has
	// stopped helping cannot balloon cell area without bound.
	CoolDown int
	// SnapshotOnEntry fires an extra snapshot at outer iteration 0; the
	// multilevel driver sets it on the finest level so inflation responds
	// to the warm-started placement inherited from the coarser level.
	SnapshotOnEntry bool
	// Capacity is the RUDY routing capacity per unit bin area (default
	// 0.15, matching the evaluation calibration).
	Capacity float64
}

// withDefaults returns o with zero fields replaced by the documented defaults.
func (o Options) withDefaults() Options {
	if o.MaxInflate <= 1 {
		o.MaxInflate = 2.0
	}
	if o.MaxDensOverflow <= 0 {
		o.MaxDensOverflow = 0.35
	}
	if o.CoolDown <= 0 {
		o.CoolDown = 2
	}
	if o.Capacity <= 0 {
		o.Capacity = 0.15
	}
	return o
}

// Stats summarizes a controller's activity. The JSON tags are the run
// report's `congestion` block.
type Stats struct {
	// Snapshots is the number of RUDY snapshots taken.
	Snapshots int `json:"snapshots"`
	// Applied counts snapshots that changed the inflation state.
	Applied int `json:"applied,omitempty"`
	// InflatedCells is the number of cells currently above scale 1.
	InflatedCells int `json:"inflated_cells,omitempty"`
	// MaxInflation is the largest per-cell scale reached.
	MaxInflation float64 `json:"max_inflation,omitempty"`
	// FrozenAtSnapshot is the 1-based snapshot index at which the cool-down
	// froze the schedule; 0 when it never froze.
	FrozenAtSnapshot int `json:"frozen_at_snapshot,omitempty"`
	// Overflow is the RUDY-overflow trajectory, one entry per snapshot.
	Overflow []float64 `json:"overflow,omitempty"`
}

// Controller owns the feedback state between snapshots. Not safe for
// concurrent use; the engine calls it from its outer loop only.
type Controller struct {
	nl   *netlist.Netlist
	grid geom.Grid
	opt  Options
	est  *route.Estimator

	scale  []float64 // per-cell area multiplier, monotone in [1, MaxInflate]
	sorted []float64 // scratch for the per-snapshot demand quantile

	stats        Stats
	frozen       bool
	bestOverflow float64
	sinceImprove int
}

// New builds a controller for nl over the engine's density grid. Returns nil
// when opt.Enable is false, so engines can hold a nil controller and skip the
// loop with one check.
func New(nl *netlist.Netlist, grid geom.Grid, opt Options) *Controller {
	if !opt.Enable {
		return nil
	}
	opt = opt.withDefaults()
	c := &Controller{
		nl:   nl,
		grid: grid,
		opt:  opt,
		est: route.NewEstimator(nl, grid, route.RUDYOptions{
			WireWidth: rudyWireWidth,
			Capacity:  opt.Capacity,
		}),
		scale:        make([]float64, len(nl.Cells)),
		bestOverflow: math.Inf(1),
	}
	for i := range c.scale {
		c.scale[i] = 1
	}
	return c
}

// Due reports whether a snapshot should fire at the given outer iteration,
// where densOv is the committed placement's exact density overflow. The
// decision depends only on the iteration index, that overflow, and the
// controller's own history — never on wall clock — so every worker count
// sees the same schedule.
func (c *Controller) Due(outer int, densOv float64) bool {
	if c == nil || c.frozen || densOv > c.opt.MaxDensOverflow {
		return false
	}
	if outer == 0 {
		return c.opt.SnapshotOnEntry
	}
	return outer%interval == 0
}

// Snapshot takes a RUDY snapshot of pl and advances the inflation schedule.
// It reports whether the inflation state changed (the caller must then
// re-feed Scale to its density model and invalidate value/gradient caches).
// A context expiry mid-snapshot leaves the schedule unchanged and returns
// false.
func (c *Controller) Snapshot(ctx context.Context, pool *par.Pool, pl *netlist.Placement) bool {
	cm := c.est.Snapshot(ctx, pool, pl)
	if cm == nil {
		return false
	}
	c.stats.Snapshots++

	ov := 0.0
	for _, d := range cm.Demand {
		if d > 1 {
			ov += d - 1
		}
	}
	c.stats.Overflow = append(c.stats.Overflow, ov)

	// Hot threshold for this snapshot: the demand quantile, floored by the
	// absolute threshold. sort.Float64s on a copy is deterministic.
	if c.sorted == nil {
		c.sorted = make([]float64, len(cm.Demand))
	}
	copy(c.sorted, cm.Demand)
	sort.Float64s(c.sorted)
	qi := int(hotQuantile * float64(len(c.sorted)-1))
	thr := c.sorted[qi]
	if thr < hotThreshold {
		thr = hotThreshold
	}

	// Cool-down: freeze once overflow stops improving. The comparison uses
	// a small relative margin so float jitter near convergence does not
	// count as progress.
	if ov < c.bestOverflow*(1-1e-6) {
		c.bestOverflow = ov
		c.sinceImprove = 0
	} else {
		c.sinceImprove++
		if c.sinceImprove >= c.opt.CoolDown {
			c.frozen = true
			c.stats.FrozenAtSnapshot = c.stats.Snapshots
			return false
		}
	}
	if ov == 0 {
		return false
	}

	changed := false
	// Inflate movable cells sitting in hot bins, ascending cell order.
	for ci := range c.nl.Cells {
		if c.nl.Cells[ci].Fixed {
			continue
		}
		bi, bj := c.grid.Loc(pl.CellCenter(c.nl, netlist.CellID(ci)))
		d := cm.Demand[c.grid.Index(bi, bj)]
		if d <= thr {
			continue
		}
		sev := (d - thr) / thr
		if sev > 1 {
			sev = 1
		}
		ns := c.scale[ci] * (1 + inflateStep*sev)
		if ns > c.opt.MaxInflate {
			ns = c.opt.MaxInflate
		}
		if ns > c.scale[ci] {
			c.scale[ci] = ns
			changed = true
		}
	}
	if changed {
		c.stats.Applied++
		c.stats.InflatedCells = 0
		c.stats.MaxInflation = 1
		for _, s := range c.scale {
			if s > 1 {
				c.stats.InflatedCells++
			}
			if s > c.stats.MaxInflation {
				c.stats.MaxInflation = s
			}
		}
	}
	return changed
}

// Scale returns the per-cell area multipliers (indexed by CellID). The slice
// is live controller state: it reflects later snapshots without re-fetching,
// which is exactly what the density model wants, but callers must not mutate
// it.
func (c *Controller) Scale() []float64 { return c.scale }

// Stats returns a copy of the controller's activity summary. The Overflow
// trajectory is copied too, so the caller may retain the result.
func (c *Controller) Stats() Stats {
	st := c.stats
	st.Overflow = append([]float64(nil), c.stats.Overflow...)
	return st
}
