package global

import (
	"context"
	"fmt"
	"math"

	"repro/internal/density"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/place/congestion"
	"repro/internal/wirelength"
)

// AlignMode selects how extracted groups constrain the optimization.
type AlignMode int

// Alignment modes.
const (
	// AlignHard substitutes variables: every cell of a column shares one x
	// variable and every group shares one base-y variable (bit offsets are
	// fixed at the row pitch). Alignment is exact by construction and the
	// optimizer spends all of its effort on wirelength and density. This is
	// the default.
	AlignHard AlignMode = iota
	// AlignSoft keeps per-cell variables and adds the quadratic alignment
	// energy with an annealed weight α — the formulation the α-sweep
	// ablation studies.
	AlignSoft
)

// The defaults a solve gets for a zero Options.WLModel, MaxOuterIters or
// InnerIters. Callers that state them (the dpplace flags, the daemon, the
// experiments, the V-cycle) read these rather than repeat the values.
const (
	// DefaultWLModel is the smooth wirelength model.
	DefaultWLModel = "wa"
	// DefaultOuterIters bounds the λ-schedule length.
	DefaultOuterIters = 24
	// DefaultInnerIters bounds the conjugate-gradient iterations per λ
	// stage.
	DefaultInnerIters = 50
)

// overflowTarget stops the outer loop once total density overflow drops
// below it (from the fourth λ stage on).
const overflowTarget = 0.10

// Options controls global placement.
type Options struct {
	// WLModel selects the smooth wirelength model: "wa" (default,
	// DefaultWLModel) or "lse".
	WLModel string
	// TargetDensity is the per-bin utilization target (default 0.9).
	TargetDensity float64
	// MaxOuterIters bounds the λ-schedule length (default
	// DefaultOuterIters).
	MaxOuterIters int
	// InnerIters bounds the conjugate-gradient iterations per λ stage
	// (default DefaultInnerIters).
	InnerIters int
	// Groups, when non-empty, turns on structure-aware mode.
	Groups []AlignGroup
	// AlignMode selects hard (default) or soft alignment.
	AlignMode AlignMode
	// AlignWeight scales the soft-alignment term relative to its
	// auto-derived base weight (default 1.0). Ignored in hard mode.
	AlignWeight float64
	// SkipQuadraticInit keeps the caller-provided start instead of running
	// the bound-to-bound solve.
	SkipQuadraticInit bool
	// Refine treats the caller-provided start as nearly converged (a
	// multilevel interpolation or an earlier solve's output): the γ schedule
	// starts 4× more compressed (2× bin size instead of 8×), so the solve
	// spends its budget polishing instead of re-deriving the global
	// structure. The density weight still auto-scales from first-order
	// balance — forcing it higher was tried and blocks wirelength descent on
	// warm starts. Implies nothing about feasibility — the health guards
	// behave exactly as in a cold start.
	Refine bool
	// Workers is the worker count for the parallel hot paths (wirelength,
	// density): 0 means GOMAXPROCS, 1 runs everything inline on the calling
	// goroutine. The placement is bit-identical at every worker count; the
	// setting only trades wall clock for cores.
	Workers int
	// Congestion configures the routability feedback loop: periodic RUDY
	// snapshots inflating cells in over-demand bins (package congestion).
	// The zero value (Enable=false) keeps the loop off and the solve
	// byte-identical to a build without it.
	Congestion congestion.Options
	// Trace, when non-nil, observes every outer iteration.
	Trace func(TracePoint)
}

// TracePoint is one outer-iteration snapshot for convergence figures: the
// same point the flight recorder's trajectory collects.
type TracePoint = obs.TrajectoryPoint

// Result reports the global placement outcome.
type Result struct {
	HPWL       float64
	Overflow   float64
	AlignRMS   float64
	OuterIters int
	FuncEvals  int
	// Workers is the resolved worker count the parallel engine ran with
	// (Options.Workers after the GOMAXPROCS default is applied).
	Workers int
	// NetRecomputes and NetReuses are FullEvals and DeltaEvals times the
	// nets of degree ≥ 2: the per-net wirelength values computed, and the
	// per-net exponentials a gradient pass reused instead.
	NetRecomputes int64
	NetReuses     int64
	// FullEvals and DeltaEvals split FuncEvals. A delta evaluation is an
	// accepted iterate's gradient, taken from what its winning line-search
	// probe's value pass stored; every other evaluation (the start of a
	// solve, each probe, each rollback) runs a full value pass.
	FullEvals  int64
	DeltaEvals int64
	// Congestion summarizes the routability feedback loop when it was
	// enabled (Options.Congestion): snapshots taken, cells inflated, the
	// RUDY-overflow trajectory. Nil when the loop was off.
	Congestion *congestion.Stats
	// Diagnostics records the resilience events of the run.
	Diagnostics Diagnostics
}

// DirtyNetRatio returns net recomputations over total per-net decisions
// (recomputations + reuses), the headline effectiveness number of the
// incremental evaluator: 1.0 means no gradient reused a value pass, values
// near zero mean almost every evaluation was an accepted iterate's
// gradient. Returns 0 when no evaluation ran.
func (r Result) DirtyNetRatio() float64 {
	total := r.NetRecomputes + r.NetReuses
	if total == 0 {
		return 0
	}
	return float64(r.NetRecomputes) / float64(total)
}

// Diagnostics records the numerical-health and cancellation events of one
// global-placement run. All-zero means the run was clean.
type Diagnostics struct {
	// Recoveries counts inner-solver health events: NaN/Inf rollbacks and
	// pathological line-search resets inside opt.Minimize.
	Recoveries int
	// Rollbacks counts outer-loop restorations of the best iterate after a
	// diverged inner solve; each one also re-anneals γ and λ.
	Rollbacks int
}

func (o *Options) fillDefaults() {
	if o.WLModel == "" {
		o.WLModel = DefaultWLModel
	}
	if o.TargetDensity <= 0 {
		o.TargetDensity = 0.9
	}
	if o.MaxOuterIters <= 0 {
		o.MaxOuterIters = DefaultOuterIters
	}
	if o.InnerIters <= 0 {
		o.InnerIters = DefaultInnerIters
	}
	if o.AlignWeight == 0 {
		o.AlignWeight = 1
	}
}

// PlaceCtx runs analytical global placement, updating pl in place (movable
// cells only). The returned placement is spread but not legalized; in hard
// alignment mode the extracted groups come out exactly bit-aligned.
//
// The context is polled in the outer λ-schedule loop and inside every
// conjugate-gradient iteration; on expiry the best iterate found so far is
// committed to pl and the error wraps pipeline.ErrTimeout. When the
// numerical-health guard gives up after repeated divergence the best
// iterate is likewise committed and the error wraps pipeline.ErrDiverged.
func PlaceCtx(ctx context.Context, nl *netlist.Netlist, pl *netlist.Placement, core *geom.Core, o Options) (Result, error) {
	o.fillDefaults()
	switch o.WLModel {
	case "wa", "lse":
	default:
		return Result{}, fmt.Errorf("global: unknown wirelength model %q", o.WLModel)
	}

	if !o.SkipQuadraticInit {
		InitQuadratic(nl, pl, core)
	}

	e := newEngine(nl, pl, core, o)
	if e.nVars == 0 {
		return Result{HPWL: pl.HPWL(nl)}, nil
	}
	return e.run(ctx)
}

// engine carries the optimization state. The variable vector v packs the x
// variables first, then the y variables. In hard alignment mode several
// cells map to one variable (column x, group base y).
type engine struct {
	nl   *netlist.Netlist
	pl   *netlist.Placement
	core *geom.Core
	o    Options
	lse  bool // o.WLModel == "lse"; WA otherwise
	grid geom.Grid
	pot  *density.Potential

	// Per-cell variable mapping: index into the x/y variable arrays, or -1
	// for fixed cells. yOff is added to the y variable's value.
	xVar, yVar []int
	yOff       []float64
	nx, ny     int
	nVars      int

	// Per-x-variable clamp bounds (account for cell width / group height).
	xLo, xHi []float64
	yLo, yHi []float64

	// Hard-mode group bookkeeping: per group, the x-var of each column and
	// each column's width (for chain-ordered initialization).
	groupColVars [][]int
	groupColW    [][]float64

	// Full per-cell scratch arrays.
	xFull, yFull   []float64
	cxFull, cyFull []float64
	gxFull, gyFull []float64

	// Parallel execution: the worker pool and the run context it polls. The
	// SoA wirelength kernels are pure functions writing caller-owned CSR
	// slots, so no per-worker model clones exist anymore.
	pool *par.Pool
	ctx  context.Context

	// Flat SoA netlist view in CSR-by-net layout, built once per engine:
	// netOff[ni] is the first pin slot of net ni; pinCell, pinDX, pinDY are
	// the per-pin cell index (-1 for pad pins) and offsets; netWeight the
	// per-net weight. Iterating these flat arrays replaces the pointer-chasing
	// walk over nl.Nets[ni].Pins in the hot loops.
	netOff    []int32
	pinCell   []int32
	pinDX     []float64
	pinDY     []float64
	netWeight []float64

	// Cell → pin-slot CSR for the gradient gather: cellPinOff[c] is the
	// first entry of cell c, cellPins the pin slots in ascending order (so
	// ascending net order) and cellPinW the weight of each slot's net.
	// Pins of nets with degree < 2, pad pins and fixed cells have no entry.
	cellPinOff []int32
	cellPins   []int32
	cellPinW   []float64

	// Wirelength kernel state, CSR-parallel to the pin layout: gathered pin
	// coordinates, the per-pin exponential scratch of the last value pass,
	// per-net axis states and values, and per-pin gradients. Ownership:
	// inside a per-net pass a worker touches only the slots of the nets in
	// its chunk; the per-cell gather then reads the pin gradients of each
	// cell's slots, and the objective sum reads the net values serially in
	// net order.
	curX, curY   []float64
	expPX, expNX []float64
	expPY, expNY []float64
	stX, stY     []wirelength.AxisState
	netVal       []float64
	pinGX, pinGY []float64
	nEvalNets    int64 // nets of degree ≥ 2, the ones a pass evaluates
	gamma        float64

	// What the last Value left for Gradient: wlReady means its wirelength
	// value pass finished, so the exponentials and axis states above are
	// those of its point; densOK means it took a finite density value, so
	// the potential's tables and residuals are too. dgx/dgy are the
	// density gradient's (unweighted) scratch.
	wlReady, densOK bool
	dgx, dgy        []float64

	// Congestion feedback controller; nil when Options.Congestion is off.
	cong *congestion.Controller

	// Term-gradient scratch (soft alignment).
	sgx, sgy []float64

	hard          bool
	lambda, alpha float64
}

func newEngine(nl *netlist.Netlist, pl *netlist.Placement, core *geom.Core, o Options) *engine {
	e := &engine{nl: nl, pl: pl, core: core, o: o, lse: o.WLModel == "lse"}
	e.hard = o.AlignMode == AlignHard && len(o.Groups) > 0

	nc := nl.NumCells()
	e.xVar = make([]int, nc)
	e.yVar = make([]int, nc)
	e.yOff = make([]float64, nc)
	for i := range e.xVar {
		e.xVar[i] = -1
		e.yVar[i] = -1
	}

	pitch := core.RowH()
	if e.hard {
		for _, g := range o.Groups {
			if len(g.Cols) == 0 || len(g.Cols[0]) == 0 {
				continue
			}
			bits := len(g.Cols[0])
			gy := e.ny
			e.ny++
			e.yLo = append(e.yLo, core.Region.Lo.Y)
			groupH := float64(bits-1)*pitch + rowHOf(nl, g)
			e.yHi = append(e.yHi, core.Region.Hi.Y-groupH)
			var colVars []int
			var colWs []float64
			for _, col := range g.Cols {
				gx := e.nx
				e.nx++
				maxW := 0.0
				for b, c := range col {
					if nl.Cell(c).Fixed {
						continue
					}
					e.xVar[c] = gx
					e.yVar[c] = gy
					e.yOff[c] = float64(b) * pitch
					if w := nl.Cell(c).W; w > maxW {
						maxW = w
					}
				}
				e.xLo = append(e.xLo, core.Region.Lo.X)
				e.xHi = append(e.xHi, core.Region.Hi.X-maxW)
				colVars = append(colVars, gx)
				colWs = append(colWs, maxW)
			}
			e.groupColVars = append(e.groupColVars, colVars)
			e.groupColW = append(e.groupColW, colWs)
		}
	}
	for i := range nl.Cells {
		if nl.Cells[i].Fixed || e.xVar[i] >= 0 {
			continue
		}
		e.xVar[i] = e.nx
		e.nx++
		e.xLo = append(e.xLo, core.Region.Lo.X)
		e.xHi = append(e.xHi, core.Region.Hi.X-nl.Cells[i].W)
		e.yVar[i] = e.ny
		e.ny++
		e.yLo = append(e.yLo, core.Region.Lo.Y)
		e.yHi = append(e.yHi, core.Region.Hi.Y-nl.Cells[i].H)
	}
	e.nVars = e.nx + e.ny

	// The density grid is derived from the design size: sqrt(movable/3)+8
	// bins a side, clamped to 16..128.
	dim := min(max(int(math.Sqrt(float64(nl.NumMovable())/3))+8, 16), 128)
	e.grid = geom.NewGrid(core.Region, dim, dim)
	e.pot = density.NewPotential(nl, pl, e.grid, o.TargetDensity)
	e.cong = congestion.New(nl, e.grid, o.Congestion)

	e.xFull = make([]float64, nc)
	e.yFull = make([]float64, nc)
	e.cxFull = make([]float64, nc)
	e.cyFull = make([]float64, nc)
	e.gxFull = make([]float64, nc)
	e.gyFull = make([]float64, nc)
	e.sgx = make([]float64, nc)
	e.sgy = make([]float64, nc)
	e.dgx = make([]float64, nc)
	e.dgy = make([]float64, nc)
	for i := range nl.Cells {
		e.xFull[i] = pl.X[i]
		e.yFull[i] = pl.Y[i]
		e.cxFull[i] = pl.X[i] + nl.Cells[i].W/2
		e.cyFull[i] = pl.Y[i] + nl.Cells[i].H/2
	}

	// Worker pool. Workers==1 (or a one-core GOMAXPROCS) keeps every hot
	// path inline on the calling goroutine — the exact serial code path.
	e.pool = par.New(o.Workers)
	e.ctx = context.Background()

	// Flat SoA netlist view: CSR pin layout plus per-net weights.
	nNets := len(nl.Nets)
	e.netOff = make([]int32, nNets+1)
	for ni := range nl.Nets {
		e.netOff[ni+1] = e.netOff[ni] + int32(nl.Nets[ni].Degree())
	}
	totalPins := int(e.netOff[nNets])
	e.pinCell = make([]int32, totalPins)
	e.pinDX = make([]float64, totalPins)
	e.pinDY = make([]float64, totalPins)
	e.netWeight = make([]float64, nNets)
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		e.netWeight[ni] = net.Weight
		off := int(e.netOff[ni])
		for k, pid := range net.Pins {
			pin := nl.Pin(pid)
			if pin.Cell == netlist.NoCell {
				e.pinCell[off+k] = -1
			} else {
				e.pinCell[off+k] = int32(pin.Cell)
			}
			e.pinDX[off+k] = pin.DX
			e.pinDY[off+k] = pin.DY
		}
	}

	// Wirelength kernel state.
	e.curX = make([]float64, totalPins)
	e.curY = make([]float64, totalPins)
	e.expPX = make([]float64, totalPins)
	e.expNX = make([]float64, totalPins)
	e.expPY = make([]float64, totalPins)
	e.expNY = make([]float64, totalPins)
	e.pinGX = make([]float64, totalPins)
	e.pinGY = make([]float64, totalPins)
	e.stX = make([]wirelength.AxisState, nNets)
	e.stY = make([]wirelength.AxisState, nNets)
	e.netVal = make([]float64, nNets)
	for ni := range nl.Nets {
		if e.netOff[ni+1]-e.netOff[ni] >= 2 {
			e.nEvalNets++
		}
	}

	e.buildCellPins()
	return e
}

// buildCellPins constructs the cell → pin-slot CSR the gradient gather
// reads. Slots are visited in pin-layout order, so each cell's list is
// ascending — the order in which a serial scatter over nets would have
// added them.
func (e *engine) buildCellPins() {
	nc := e.nl.NumCells()
	forEachSlot := func(visit func(c int32, k, ni int)) {
		for ni := range e.netWeight {
			off, end := int(e.netOff[ni]), int(e.netOff[ni+1])
			if end-off < 2 {
				continue
			}
			for k := off; k < end; k++ {
				if c := e.pinCell[k]; c >= 0 && e.xVar[c] >= 0 {
					visit(c, k, ni)
				}
			}
		}
	}
	e.cellPinOff = make([]int32, nc+1)
	forEachSlot(func(c int32, _, _ int) { e.cellPinOff[c+1]++ })
	for c := 0; c < nc; c++ {
		e.cellPinOff[c+1] += e.cellPinOff[c]
	}
	e.cellPins = make([]int32, e.cellPinOff[nc])
	e.cellPinW = make([]float64, e.cellPinOff[nc])
	fill := make([]int32, nc)
	copy(fill, e.cellPinOff[:nc])
	forEachSlot(func(c int32, k, ni int) {
		e.cellPins[fill[c]] = int32(k)
		e.cellPinW[fill[c]] = e.netWeight[ni]
		fill[c]++
	})
}

// rowHOf returns the cell height of a group (uniform in row-based designs).
func rowHOf(nl *netlist.Netlist, g AlignGroup) float64 {
	return nl.Cell(g.Cols[0][0]).H
}

// initVars seeds the variable vector from the current placement: shared
// variables start at the mean of their members.
func (e *engine) initVars(v []float64) {
	cnt := make([]float64, e.nVars)
	for i := range v {
		v[i] = 0
	}
	for c := range e.nl.Cells {
		if e.xVar[c] < 0 {
			continue
		}
		v[e.xVar[c]] += e.pl.X[c]
		cnt[e.xVar[c]]++
		v[e.nx+e.yVar[c]] += e.pl.Y[c] - e.yOff[c]
		cnt[e.nx+e.yVar[c]]++
	}
	for i := range v {
		if cnt[i] > 0 {
			v[i] /= cnt[i]
		}
	}
	// Hard mode: the quadratic start puts all of a group's columns at
	// nearly the same x, and columns cannot tunnel through each other later
	// (density is a barrier), so their initial left-to-right order persists
	// into the final stage order. Spread each group's columns in chain-
	// connectivity order around the group's mean.
	gi := 0
	for _, g := range e.o.Groups {
		if len(g.Cols) == 0 || len(g.Cols[0]) == 0 || !e.hard {
			continue
		}
		colVars := e.groupColVars[gi]
		colWs := e.groupColW[gi]
		gi++
		order := chainOrder(e.nl, g, 16)
		total := 0.0
		mean := 0.0
		for k, cv := range colVars {
			total += colWs[k]
			mean += v[cv]
		}
		mean /= float64(len(colVars))
		x := mean - total/2
		if x < e.core.Region.Lo.X {
			x = e.core.Region.Lo.X
		}
		for _, k := range order {
			v[colVars[k]] = x
			x += colWs[k]
		}
	}
	e.clampVars(v)
}

// updateAllCells recomputes every movable cell's coordinates from v in one
// parallel pass; each cell's slots depend only on v, so the result is the
// serial loop's at any worker count. The pass ignores the run context on
// purpose: run() moves the cells once more after a cancelled solve to score
// the committed iterate, and a pass stopped between chunks would leave some
// cells behind.
func (e *engine) updateAllCells(v []float64) {
	nc := len(e.xFull)
	// A background context cannot expire, so Run always completes.
	_ = e.pool.Run(context.Background(), nc, e.pool.Grain(nc, 256), func(lo, hi int) {
		for c := lo; c < hi; c++ {
			if e.xVar[c] >= 0 {
				e.updateCell(c, v)
			}
		}
	})
}

// updateCell recomputes one cell's corner and center coordinates from v.
func (e *engine) updateCell(c int, v []float64) {
	cell := &e.nl.Cells[c]
	e.xFull[c] = v[e.xVar[c]]
	e.yFull[c] = v[e.nx+e.yVar[c]] + e.yOff[c]
	e.cxFull[c] = e.xFull[c] + cell.W/2
	e.cyFull[c] = e.yFull[c] + cell.H/2
}

// Value moves every cell to v and returns the objective there: the smooth
// wirelength, λ·density when λ > 0 and, in soft alignment mode, α·alignment.
// The wirelength value pass runs the value kernels of every net into its
// own exp and state slots; the weighted sum then runs serially in net
// order, so the value is bit-identical at every worker count. What the pass
// stores is all Gradient needs (see wlReady, densOK). A pass stopped by the
// run context makes the objective NaN, which the optimizer rejects; its
// own context poll then stops the solve.
func (e *engine) Value(v []float64) float64 {
	e.updateAllCells(v)
	e.densOK = false
	e.wlReady = e.netPass(false) == nil
	if !e.wlReady {
		return math.NaN()
	}
	netOff, netWeight, netVal := e.netOff, e.netWeight, e.netVal
	wl := 0.0
	for ni := range netVal {
		if netOff[ni+1]-netOff[ni] < 2 {
			continue
		}
		wl += netWeight[ni] * netVal[ni]
	}
	var dens float64
	if e.lambda > 0 {
		dens = e.pot.Value(e.cxFull, e.cyFull)
		e.densOK = !math.IsNaN(dens)
	}
	var align float64
	if e.softAlign() {
		align = alignEnergy(e.o.Groups, e.core.RowH(), e.cxFull, e.cyFull, nil, nil)
	}
	return wl + e.lambda*dens + e.alpha*align
}

// Gradient fills grad with the gradient at the point of the last Value:
// the per-cell gradient of cellGradient, summed over each variable's cells.
// When that Value or a pass of this call was stopped by the run context it
// fills grad with NaN instead.
func (e *engine) Gradient(grad []float64) {
	if !e.cellGradient() {
		for i := range grad {
			grad[i] = math.NaN()
		}
		return
	}
	clear(grad)
	for c := range e.nl.Cells {
		if e.xVar[c] < 0 {
			continue
		}
		grad[e.xVar[c]] += e.gxFull[c]
		grad[e.nx+e.yVar[c]] += e.gyFull[c]
	}
}

// cellGradient fills gxFull/gyFull with the per-cell gradient at the point
// of the last Value, in a fixed order of additions. The wirelength gradient
// kernels run from the exponentials that Value stored, with no math.Exp
// call, and the weighted pin gradients reach the cells through a parallel
// gather: each cell walks its pin slots in ascending order (the cellPins
// CSR), adding exactly what a serial scatter over nets would have added to
// it, in the same order. λ·density follows from the potential's stored
// tables, skipped when the density value was NaN, then α·alignment. The
// result is bit-identical at every worker count and to a fused
// value-and-gradient pass (the kernels are pure functions of stored
// inputs). It reports false when there is no value pass to differentiate
// or the run context stopped a pass.
func (e *engine) cellGradient() bool {
	clear(e.gxFull)
	clear(e.gyFull)
	if !e.wlReady || e.netPass(true) != nil {
		return false
	}
	cellPinOff, cellPins, cellPinW := e.cellPinOff, e.cellPins, e.cellPinW
	pinGX, pinGY, gxFull, gyFull := e.pinGX, e.pinGY, e.gxFull, e.gyFull
	nc := len(gxFull)
	if err := e.pool.Run(e.ctx, nc, e.pool.Grain(nc, 256), func(lo, hi int) {
		for c := lo; c < hi; c++ {
			from, to := cellPinOff[c], cellPinOff[c+1]
			if from == to {
				continue
			}
			gx, gy := gxFull[c], gyFull[c]
			for s := from; s < to; s++ {
				k, w := cellPins[s], cellPinW[s]
				gx += w * pinGX[k]
				gy += w * pinGY[k]
			}
			gxFull[c], gyFull[c] = gx, gy
		}
	}); err != nil {
		return false
	}
	if e.densOK {
		clear(e.dgx)
		clear(e.dgy)
		if !e.pot.Gradient(e.dgx, e.dgy) {
			return false
		}
		for i := range e.dgx {
			e.gxFull[i] += e.lambda * e.dgx[i]
			e.gyFull[i] += e.lambda * e.dgy[i]
		}
	}
	if e.softAlign() {
		clear(e.sgx)
		clear(e.sgy)
		alignEnergy(e.o.Groups, e.core.RowH(), e.cxFull, e.cyFull, e.sgx, e.sgy)
		for i := range e.sgx {
			e.gxFull[i] += e.alpha * e.sgx[i]
			e.gyFull[i] += e.alpha * e.sgy[i]
		}
	}
	return true
}

// softAlign reports whether the objective carries the soft alignment term.
func (e *engine) softAlign() bool {
	return e.alpha > 0 && len(e.o.Groups) > 0 && !e.hard
}

// netPass runs the per-net wirelength kernels over every net of degree
// ≥ 2: the value kernels, after gathering the net's pin coordinates, or,
// with grad set, the gradient kernels from the exponentials and axis states
// the last value pass stored. Each net writes only its own slots.
func (e *engine) netPass(grad bool) error {
	nNets := len(e.netVal)
	// Hoist the hot slices and scalars out of the worker closure, so the
	// net loop reads locals rather than fields through e, which its slice
	// stores could alias.
	netOff, pinCell, pinDX, pinDY := e.netOff, e.pinCell, e.pinDX, e.pinDY
	curX, curY, xFull, yFull := e.curX, e.curY, e.xFull, e.yFull
	expPX, expNX, expPY, expNY := e.expPX, e.expNX, e.expPY, e.expNY
	netVal, stX, stY := e.netVal, e.stX, e.stY
	pinGX, pinGY := e.pinGX, e.pinGY
	lse, gamma := e.lse, e.gamma
	return e.pool.Run(e.ctx, nNets, e.pool.Grain(nNets, 256), func(lo, hi int) {
		for ni := lo; ni < hi; ni++ {
			off, end := int(netOff[ni]), int(netOff[ni+1])
			if end-off < 2 {
				continue
			}
			xs, ys := curX[off:end], curY[off:end]
			epx, enx := expPX[off:end], expNX[off:end]
			epy, eny := expPY[off:end], expNY[off:end]
			if grad {
				if lse {
					wirelength.LSEGradAxis(epx, enx, stX[ni], pinGX[off:end])
					wirelength.LSEGradAxis(epy, eny, stY[ni], pinGY[off:end])
				} else {
					wirelength.WAGradAxis(xs, epx, enx, stX[ni], gamma, pinGX[off:end])
					wirelength.WAGradAxis(ys, epy, eny, stY[ni], gamma, pinGY[off:end])
				}
				continue
			}
			for k := off; k < end; k++ {
				if c := pinCell[k]; c >= 0 {
					curX[k] = xFull[c] + pinDX[k]
					curY[k] = yFull[c] + pinDY[k]
				} else {
					curX[k] = pinDX[k]
					curY[k] = pinDY[k]
				}
			}
			var wx, wy float64
			if lse {
				stX[ni], wx = wirelength.LSEValueAxis(xs, epx, enx, gamma)
				stY[ni], wy = wirelength.LSEValueAxis(ys, epy, eny, gamma)
			} else {
				stX[ni], wx = wirelength.WAValueAxis(xs, epx, enx, gamma)
				stY[ni], wy = wirelength.WAValueAxis(ys, epy, eny, gamma)
			}
			netVal[ni] = wx + wy
		}
	})
}

// gradL1 sums |g| over movable cells.
func gradL1(gx, gy []float64, nl *netlist.Netlist) float64 {
	s := 0.0
	for i := range nl.Cells {
		if nl.Cells[i].Fixed {
			continue
		}
		s += math.Abs(gx[i]) + math.Abs(gy[i])
	}
	return s
}

// innerOpts assembles the inner-solver options for one λ stage, attaching
// flight-recorder telemetry when recording is on: every accepted iterate and
// every health event (rollback, line-search reset, CG restart, divergence)
// lands in the trace. The callback only observes, so the iterate sequence is
// bit-identical to an unrecorded run. The first trial step moves the
// strongest variable about a quarter bin.
func (e *engine) innerOpts(ctx context.Context, rec *obs.Recorder, outer int) opt.Options {
	oo := opt.Options{
		MaxIter:   e.o.InnerIters,
		GradTol:   1e-7,
		FirstMove: 0.25 * math.Max(e.grid.BinW, e.grid.BinH),
		Ctx:       ctx,
	}
	if rec.Active() {
		oo.Callback = func(iter int, f, gnorm float64) {
			rec.SolverIter("global", outer, iter, f, gnorm)
		}
		oo.OnEvent = func(ev opt.Event) {
			rec.SolverEvent("global", outer, ev.Kind, ev.Iter, ev.F, ev.Step)
		}
	}
	return oo
}

// run executes the λ-scheduled outer loop.
func (e *engine) run(ctx context.Context) (Result, error) {
	nl, pl := e.nl, e.pl
	rec := obs.From(ctx)
	// The run context reaches into the parallel kernels so a deadline can
	// stop work between chunks; determinism is unaffected because partial
	// results are poisoned (NaN) rather than used.
	e.ctx = ctx
	e.pot.SetParallel(e.pool, ctx)
	// One set of helpers serves every parallel pass of the solve —
	// wirelength, density and the congestion snapshots — so the passes of
	// an evaluation skip the thread wake-up a fresh helper would cost.
	defer e.pool.Hold()()
	v := make([]float64, e.nVars)
	e.initVars(v)

	gammaHi := 8 * math.Max(e.grid.BinW, e.grid.BinH)
	gammaLo := 0.5 * math.Max(e.grid.BinW, e.grid.BinH)
	if e.o.Refine {
		// Warm start: the placement is already spread, so the schedule skips
		// the exploratory large-γ stages and polishes from mid-schedule.
		gammaHi = 2 * math.Max(e.grid.BinW, e.grid.BinH)
	}
	e.gamma = gammaHi

	// Auto-scale λ (and α in soft mode) from first-order balance. At
	// λ = α = 0 the objective is the wirelength alone, so its per-cell
	// gradient is the wirelength gradient; the density and alignment
	// gradients at the same point go into their own scratch.
	e.lambda, e.alpha = 0, 0
	e.Value(v)
	e.cellGradient()
	wlNorm := gradL1(e.gxFull, e.gyFull, nl)

	clear(e.dgx)
	clear(e.dgy)
	if !math.IsNaN(e.pot.Value(e.cxFull, e.cyFull)) {
		e.pot.Gradient(e.dgx, e.dgy)
	}
	densNorm := gradL1(e.dgx, e.dgy, nl)
	lambda0 := 1e-4
	if densNorm > 0 {
		lambda0 = 0.2 * wlNorm / densNorm
	}

	alpha0 := 0.0
	if len(e.o.Groups) > 0 && !e.hard {
		clear(e.sgx)
		clear(e.sgy)
		alignEnergy(e.o.Groups, e.core.RowH(), e.cxFull, e.cyFull, e.sgx, e.sgy)
		if alignNorm := gradL1(e.sgx, e.sgy, nl); alignNorm > 0 {
			alpha0 = 0.02 * wlNorm / alignNorm * e.o.AlignWeight
		}
	}

	res := Result{}
	e.lambda = lambda0
	e.alpha = alpha0
	// Over-penalization guard: past some λ the smooth-kernel objective
	// stops tracking exact overflow and the iterates drift. Keep the best
	// iterate seen and stop once overflow plateaus.
	bestV := make([]float64, len(v))
	bestOv := math.Inf(1)
	sinceBest := 0
	// Health bookkeeping: γ re-annealing boost (1 = schedule as planned)
	// and the divergence strike count. Two strikes and the run gives up so
	// the caller can fall back to a simpler formulation.
	gammaBoost := 1.0
	diverged := 0
	// lastOv tracks the exact density overflow of the committed placement;
	// the congestion controller gates its snapshot cadence on it (inflating
	// a still-clustered placement is pure HPWL cost). Seeded with a real
	// measurement only when the loop is on — it costs an exact map pass.
	lastOv := math.Inf(1)
	if e.cong != nil {
		lastOv = density.Overflow(nl, pl, e.grid, e.o.TargetDensity)
	}
	var stageErr error
	for outer := 0; outer < e.o.MaxOuterIters; outer++ {
		if pipeline.Expired(ctx) {
			stageErr = pipeline.StageError("global", pipeline.ErrTimeout)
			rec.Event("global", "deadline")
			rec.Logf(obs.Warn, "global",
				"deadline expired at outer %d; committing best iterate", outer)
			break
		}
		// Congestion feedback: pl holds the committed iterate (the initial
		// placement at outer 0), so the snapshot sees what the spreader
		// produced. The next Minimize starts with a Value, which reads the
		// new scale (DESIGN.md §15.4).
		if e.cong.Due(outer, lastOv) {
			if e.cong.Snapshot(ctx, e.pool, pl) {
				e.pot.SetAreaScale(e.cong.Scale())
				st := e.cong.Stats()
				rec.SolverEvent("global", outer, "congestion-inflate", 0, 0, e.lambda)
				rec.Logf(obs.Debug, "global",
					"congestion snapshot %d at outer %d: %d cells inflated (max ×%.2f), RUDY overflow %.1f",
					st.Snapshots, outer, st.InflatedCells, st.MaxInflation,
					st.Overflow[len(st.Overflow)-1])
			}
		}

		frac := float64(outer) / math.Max(1, float64(e.o.MaxOuterIters-1))
		gamma := gammaHi * math.Pow(gammaLo/gammaHi, frac)
		if gammaBoost != 1 {
			gamma = math.Min(gammaHi, gamma*gammaBoost)
		}
		e.gamma = gamma

		r := opt.Minimize(e, v, e.innerOpts(ctx, rec, outer))
		res.FuncEvals += r.FuncEvals
		res.DeltaEvals += int64(r.Iters)
		res.OuterIters = outer + 1
		res.Diagnostics.Recoveries += r.Recoveries

		if r.Diverged || !finiteVec(v) {
			// The inner solve blew up beyond its own recovery budget: roll
			// back to the best iterate and re-anneal — smoother γ, gentler λ
			// — so the next stage re-approaches the barrier gradually.
			diverged++
			res.Diagnostics.Rollbacks++
			if bestOv < math.Inf(1) {
				copy(v, bestV)
			} else {
				e.initVars(v)
			}
			e.lambda = math.Max(lambda0, e.lambda*0.25)
			if e.alpha > 0 {
				e.alpha = math.Max(alpha0, e.alpha*0.25)
			}
			gammaBoost *= 2
			rec.SolverEvent("global", outer, "outer-rollback", r.Iters, r.F, 0)
			rec.SolverEvent("global", outer, "re-anneal", r.Iters, r.F, e.lambda)
			rec.Logf(obs.Warn, "global",
				"inner solve diverged at outer %d; rolled back and re-annealed (λ→%.3g, γ boost ×%g)",
				outer, e.lambda, gammaBoost)
			if diverged >= 2 {
				stageErr = pipeline.StageError("global", pipeline.ErrDiverged)
				rec.Logf(obs.Warn, "global", "health guard gave up after %d diverged stages", diverged)
				break
			}
			continue
		}

		e.clampVars(v)
		e.commit(v)
		ov := density.Overflow(nl, pl, e.grid, e.o.TargetDensity)
		lastOv = ov
		if ov < bestOv-1e-4 {
			bestOv = ov
			copy(bestV, v)
			sinceBest = 0
		} else {
			sinceBest++
		}
		if e.o.Trace != nil || rec.Active() {
			e.updateAllCells(v)
			p := TracePoint{
				Outer:     outer,
				Inner:     r.Iters,
				HPWL:      pl.HPWL(nl),
				Overflow:  ov,
				AlignRMS:  AlignmentScore(e.o.Groups, e.core.RowH(), e.cxFull, e.cyFull),
				Objective: r.F,
				Lambda:    e.lambda,
				Alpha:     e.alpha,
				Gamma:     gamma,
			}
			if e.o.Trace != nil {
				e.o.Trace(p)
			}
			rec.OuterIter("global", p)
		}
		if r.Stopped {
			stageErr = pipeline.StageError("global", pipeline.ErrTimeout)
			break
		}
		if ov < overflowTarget && outer >= 3 {
			break
		}
		if sinceBest >= 4 {
			break // density progress has stalled; more λ only hurts
		}
		e.lambda *= 2
		if e.alpha > 0 {
			e.alpha *= 1.7
		}
	}
	if bestOv < math.Inf(1) {
		copy(v, bestV)
	}

	// Soft mode needs a final alignment polish before legalization; hard
	// mode is aligned by construction. Skipped on an abnormal stop: the
	// best iterate is worth more than a polish under a blown budget.
	if stageErr == nil && !e.hard && len(e.o.Groups) > 0 && e.alpha > 0 {
		e.alpha *= 64
		// Outer index -1 marks the soft-alignment polish solve in the trace.
		r := opt.Minimize(e, v, e.innerOpts(ctx, rec, -1))
		res.FuncEvals += r.FuncEvals
		res.DeltaEvals += int64(r.Iters)
		res.Diagnostics.Recoveries += r.Recoveries
		if r.Stopped {
			stageErr = pipeline.StageError("global", pipeline.ErrTimeout)
		}
		e.clampVars(v)
	}

	e.commit(v)
	pl.ClampInto(nl, e.core.Region)
	e.updateAllCells(v)
	res.HPWL = pl.HPWL(nl)
	res.Overflow = density.Overflow(nl, pl, e.grid, e.o.TargetDensity)
	res.AlignRMS = AlignmentScore(e.o.Groups, e.core.RowH(), e.cxFull, e.cyFull)
	res.Workers = e.pool.Workers()
	res.FullEvals = int64(res.FuncEvals) - res.DeltaEvals
	res.NetRecomputes = res.FullEvals * e.nEvalNets
	res.NetReuses = res.DeltaEvals * e.nEvalNets
	// Recorder counters sum over every solve of a run (each V-cycle level,
	// a baseline rerun); the Result fields describe this solve alone.
	rec.Add("global/outer_iters", int64(res.OuterIters))
	rec.Add("global/func_evals", int64(res.FuncEvals))
	rec.Add("global/evals_full", res.FullEvals)
	rec.Add("global/evals_delta", res.DeltaEvals)
	if e.cong != nil {
		st := e.cong.Stats()
		res.Congestion = &st
	}
	rec.Logf(obs.Debug, "global",
		"done: %d outer iters, %d evals, HPWL %.0f, overflow %.3f, align RMS %.3f",
		res.OuterIters, res.FuncEvals, res.HPWL, res.Overflow, res.AlignRMS)
	return res, stageErr
}

// finiteVec reports whether every component of v is finite.
func finiteVec(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// clampVars keeps every variable inside its feasible interval.
func (e *engine) clampVars(v []float64) {
	for i := 0; i < e.nx; i++ {
		v[i] = geom.Clamp(v[i], e.xLo[i], math.Max(e.xLo[i], e.xHi[i]))
	}
	for i := 0; i < e.ny; i++ {
		v[e.nx+i] = geom.Clamp(v[e.nx+i], e.yLo[i], math.Max(e.yLo[i], e.yHi[i]))
	}
}

// commit writes the variable vector back into the placement.
func (e *engine) commit(v []float64) {
	for c := range e.nl.Cells {
		if e.xVar[c] < 0 {
			continue
		}
		e.pl.X[c] = v[e.xVar[c]]
		e.pl.Y[c] = v[e.nx+e.yVar[c]] + e.yOff[c]
	}
}
