package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/bookshelf"
	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/density"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/place/congestion"
	"repro/internal/place/detail"
	"repro/internal/place/global"
	"repro/internal/place/legal"
	"repro/internal/place/multilevel"
	"repro/internal/route"
)

// workers is the worker count of every load: the placer's parallel engine,
// the evaluator and the daemon's shared budget. It equals the CPU count of
// the machine the bounds were measured on, so no load oversubscribes it.
const workers = 2

// setupReps is how many times a run builds its inputs; setup_s is the
// median of these builds. A build takes 4–200 ms, and with five the median
// of ten runs spread up to 36%.
const setupReps = 9

// design is one placement input.
type design struct {
	nl   *netlist.Netlist
	chip *geom.Core
	pl   *netlist.Placement
}

// flowCase is one placement request of a unit of work.
type flowCase struct {
	name string
	d    design
	opt  core.Options
}

// jobResult is what one placement plus evaluation returns.
type jobResult struct {
	pl       *netlist.Placement
	hpwl     float64
	steiner  float64
	overflow float64
}

// errUnusable marks a placement that came back partial or unchecked.
var errUnusable = errors.New("placement partial or not legality-checked")

// suiteConfigs returns the gen.Suite designs dp01–dp05 with their fixed
// seeds: the paper's evaluation protocol. tiny shrinks them for the smoke
// test.
func suiteConfigs(tiny bool) []gen.Config {
	cfgs := gen.Suite()[:5]
	if tiny {
		cfgs = cfgs[:2]
		for i := range cfgs {
			cfgs[i].Bits = 4
			cfgs[i].RandomCells /= 8
		}
	}
	return cfgs
}

// largeConfig returns the large design: the shape of the "big" design of
// EXPERIMENTS.md Table 8 (a 32-bit adder, register bank, shifter and mux
// tree, generated from seed 5) with 4,000 random cells instead of 12,000,
// 4.9k cells in all. At 12.9k cells a placement takes about 8 s and a run
// holds two; the latency spread over ten seeds was 14–16% there, against
// 7–10% for this design.
func largeConfig(tiny bool) gen.Config {
	c := gen.Config{
		Name: "large", Seed: 5, Bits: 32,
		Units:       []gen.UnitKind{gen.Adder, gen.RegBank, gen.Shifter, gen.MuxTree},
		RandomCells: 4000,
	}
	if tiny {
		c.Bits, c.RandomCells = 8, 300
	}
	return c
}

// flowOptions returns the flow options a workload places with.
func flowOptions(workload string, mode core.Mode) core.Options {
	opt := core.Options{Mode: mode, Global: global.Options{Workers: workers}}
	if workload == "large-ml-cong" {
		opt.Multilevel = true
		opt.Global.Congestion = congestion.Options{Enable: true}
	}
	return opt
}

// permute returns the same design with its cells and nets listed in an
// order drawn from seed, as another input file could list them. The run
// seed reaches the placer this way: the designs stay fixed, while every
// seed is a different input whose placement follows a different numerical
// path.
func permute(d design, seed int64) design {
	nl := d.nl
	out := netlist.New(nl.Name)
	out.Reserve(nl.NumCells(), nl.NumNets(), nl.NumPins())
	newID := make([]netlist.CellID, nl.NumCells())
	for _, c := range order(nl.NumCells(), deriveSeed(seed, 0)) {
		cell := &nl.Cells[c]
		newID[c] = out.MustAddCell(cell.Name, cell.Type, cell.W, cell.H, cell.Fixed)
	}
	for _, n := range order(nl.NumNets(), deriveSeed(seed, 1)) {
		net := &nl.Nets[n]
		ends := make([]netlist.Endpoint, len(net.Pins))
		for i, pid := range net.Pins {
			p := &nl.Pins[pid]
			c := p.Cell
			if c != netlist.NoCell {
				c = newID[c]
			}
			ends[i] = netlist.Endpoint{Cell: c, Pin: p.Name, Dir: p.Dir, DX: p.DX, DY: p.DY}
		}
		out.MustAddNet(net.Name, net.Weight, ends...)
	}
	pl := netlist.NewPlacement(out)
	for c, id := range newID {
		pl.X[id], pl.Y[id] = d.pl.X[c], d.pl.Y[c]
	}
	return design{nl: out, chip: d.chip, pl: pl}
}

// timed runs one layer call under a span of run and adds its duration to
// *secs.
func timed(tr *tracer, run string, parent int, name string, secs *float64, fn func() error) error {
	sp := tr.begin(run, name, parent)
	sw := obs.StartStopwatch()
	err := fn()
	*secs += sw.Seconds()
	tr.end(sp)
	return err
}

// listings is how many listings of each design one run places. Units of
// work cycle through them, so a run's numbers describe the designs rather
// than one listing's numerical path, and a run needs at least this many
// units.
const listings = 3

// buildCases generates the workload's designs and permutes each into the
// run's listings, returning the cases of every listing and the time spent in
// the generator and Bookshelf layers (the permutation is the benchmark's own
// work and is not counted). The large workloads write each listing as
// Bookshelf files under dir and place what they read back, as dpplace users
// do.
func buildCases(cfg config, tr *tracer, run, dir string) ([][]flowCase, float64, error) {
	root := tr.begin(run, "setup", 0)
	defer tr.end(root)
	secs := 0.0
	generate := func(gc gen.Config) design {
		var b *gen.Benchmark
		timed(tr, run, root, "gen.generate", &secs, func() error {
			b = gen.Generate(gc)
			return nil
		})
		return design{nl: b.Netlist, chip: b.Core, pl: b.Placement}
	}
	out := make([][]flowCase, listings)
	if cfg.workload == "suite" {
		for i, gc := range suiteConfigs(cfg.tiny) {
			d := generate(gc)
			for k := range out {
				p := permute(d, deriveSeed(cfg.seed, uint64(listings*i+k)))
				for _, m := range []core.Mode{core.StructureAware, core.Baseline} {
					out[k] = append(out[k], flowCase{name: fmt.Sprintf("%s/%s/listing%d", gc.Name, m, k), d: p, opt: flowOptions(cfg.workload, m)})
				}
			}
		}
		return out, secs, nil
	}
	gc := largeConfig(cfg.tiny)
	d := generate(gc)
	for k := range out {
		p := permute(d, deriveSeed(cfg.seed, uint64(k)))
		var aux string
		err := timed(tr, run, root, "bookshelf.write", &secs, func() error {
			var err error
			aux, err = bookshelf.WriteAux(filepath.Join(dir, fmt.Sprint(k)), gc.Name, &bookshelf.Design{Netlist: p.nl, Placement: p.pl, Core: p.chip})
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		var read *bookshelf.Design
		err = timed(tr, run, root, "bookshelf.read", &secs, func() error {
			read, err = bookshelf.ReadAux(aux)
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		out[k] = []flowCase{{
			name: fmt.Sprintf("%s/listing%d", gc.Name, k),
			d:    design{nl: read.Netlist, chip: read.Core, pl: read.Placement},
			opt:  flowOptions(cfg.workload, core.StructureAware),
		}}
	}
	return out, secs, nil
}

// runCore places a case through core.PlaceCtx and evaluates it with
// metrics.Evaluate: the calls a dpplace user makes.
func runCore(ctx context.Context, c flowCase) (jobResult, error) {
	res, err := core.PlaceCtx(ctx, c.d.nl, c.d.chip, c.d.pl, c.opt)
	if err != nil {
		return jobResult{}, err
	}
	if res.Partial || !res.LegalityChecked {
		return jobResult{}, errUnusable
	}
	if err := res.Placement.CheckLegal(c.d.nl, c.d.chip); err != nil {
		return jobResult{}, err
	}
	rep := metrics.Evaluate(c.d.nl, res.Placement, c.d.chip, metrics.Options{Workers: workers})
	return jobResult{pl: res.Placement, hpwl: res.HPWLFinal, steiner: rep.SteinerWL, overflow: rep.Routed.Overflow}, nil
}

// globalInput is the state a flow hands its global-placement stage, which
// places pl in place.
type globalInput struct {
	pl     *netlist.Placement
	gOpt   global.Options
	groups []global.AlignGroup
}

// runGlobal runs the global stage the way core.PlaceCtx dispatches it: the
// flat engine, or the V-cycle around it.
func runGlobal(ctx context.Context, c flowCase, in globalInput) (global.Result, *multilevel.Result, error) {
	if !c.opt.Multilevel {
		g := in.gOpt
		g.Groups = in.groups
		res, err := global.PlaceCtx(ctx, c.d.nl, in.pl, c.d.chip, g)
		return res, nil, err
	}
	mo := c.opt.MultilevelOpts
	mo.Global = in.gOpt
	mo.Groups = in.groups
	res, err := multilevel.PlaceCtx(ctx, c.d.nl, in.pl, c.d.chip, mo)
	return res.Global, &res, err
}

// layerCounts accumulates one unit's per-layer counts, keyed by metric name.
type layerCounts map[string]float64

// runComposed places and evaluates a case by calling each layer itself, in
// the order and with the options core.PlaceCtx and metrics.Evaluate use, and
// records a span around every call. Spans hang under parent in run. The
// outer-iteration durations of the global solve are appended to outerSecs.
// When keep is non-nil it receives the state handed to the global stage.
func runComposed(ctx context.Context, c flowCase, tr *tracer, run string, parent int, counts layerCounts, outerSecs *[]float64, keep *globalInput) (jobResult, error) {
	nl, chip := c.d.nl, c.d.chip
	job := tr.begin(run, "job", parent)
	defer tr.end(job)
	pl := c.d.pl.Clone()

	var groups []global.AlignGroup
	if c.opt.Mode == core.StructureAware {
		sp := tr.begin(run, "datapath.extract", job)
		ext := datapath.Extract(nl, datapath.DefaultOptions())
		tr.end(sp)
		groups = global.AlignGroupsFromExtraction(ext)
		counts["datapath.grouped_cells"] += float64(ext.NumGrouped())
	}
	gOpt := c.opt.Global
	if len(groups) > 0 {
		sp := tr.begin(run, "global.init", job)
		global.InitQuadratic(nl, pl, chip)
		groups = global.SplitWideGroups(nl, pl, chip, groups, 0.95)
		tr.end(sp)
		gOpt.SkipQuadraticInit = true
	}
	if keep != nil {
		*keep = globalInput{pl: pl.Clone(), gOpt: gOpt, groups: groups}
	}

	// The trace callback only observes; the bit-identity check against
	// core.PlaceCtx proves it leaves the placement unchanged.
	lap := obs.StartStopwatch()
	gOpt.Trace = func(global.TracePoint) {
		*outerSecs = append(*outerSecs, lap.Seconds())
		lap = obs.StartStopwatch()
	}
	name := "global.solve"
	if c.opt.Multilevel {
		name = "multilevel.place"
	}
	sp := tr.begin(run, name, job)
	sw := obs.StartStopwatch()
	gRes, ml, err := runGlobal(ctx, c, globalInput{pl: pl, gOpt: gOpt, groups: groups})
	secs := sw.Seconds()
	tr.end(sp)
	if err != nil {
		return jobResult{}, fmt.Errorf("%s: %w", name, err)
	}
	counts["global.stage_s"] += secs
	counts["global.outer_iters"] += float64(gRes.OuterIters)
	counts["global.func_evals"] += float64(gRes.FuncEvals)
	counts["global.evals_full"] += float64(gRes.FullEvals)
	counts["global.evals_delta"] += float64(gRes.DeltaEvals)
	counts["global.net_recomputes"] += float64(gRes.NetRecomputes)
	counts["global.net_reuses"] += float64(gRes.NetReuses)
	if ml != nil {
		levelSecs := 0.0
		for _, lv := range ml.PerLevel {
			levelSecs += lv.Seconds
		}
		counts["multilevel.levels"] += float64(ml.Levels)
		counts["multilevel.level_solve_s"] += levelSecs
		counts["multilevel.overhead_s"] += secs - levelSecs
	}
	if cs := gRes.Congestion; cs != nil {
		counts["congestion.snapshots"] += float64(cs.Snapshots)
		counts["congestion.inflated_cells"] += float64(cs.InflatedCells)
	}

	sp = tr.begin(run, "legal.legalize", job)
	lRes, err := legal.LegalizeCtx(ctx, nl, pl, chip, legal.Options{Groups: groups})
	tr.end(sp)
	if err != nil {
		return jobResult{}, fmt.Errorf("legalize: %w", err)
	}
	counts["legal.group_blocks"] += float64(lRes.GroupBlocks)

	const passes = 2 // core.PlaceCtx's default
	sp = tr.begin(run, "detail.improve", job)
	dRes := detail.Improve(nl, pl, chip, detail.Options{
		Locked: detail.LockedFromGroups(nl.NumCells(), groups),
		Passes: passes,
		Ctx:    ctx,
	})
	tr.end(sp)
	if dRes.Partial {
		return jobResult{}, errUnusable
	}
	counts["detail.moves"] += float64(dRes.Moves)
	if len(groups) > 0 {
		sp = tr.begin(run, "detail.columns", job)
		counts["detail.column_swaps"] += float64(detail.ImproveColumns(nl, pl, groups, passes))
		tr.end(sp)
	}
	if err := pl.CheckLegal(nl, chip); err != nil {
		return jobResult{}, err
	}

	out := jobResult{pl: pl, hpwl: pl.HPWL(nl)}
	ev := tr.begin(run, "metrics.evaluate", job)
	pool := par.New(workers)
	grid := geom.NewGrid(chip.Region, 32, 32)
	sp = tr.begin(run, "route.rudy", ev)
	route.RUDYPool(ctx, pool, nl, pl, grid, route.RUDYOptions{WireWidth: 1, Capacity: 0.15})
	tr.end(sp)
	sp = tr.begin(run, "route.groute", ev)
	gr := route.GlobalRouteCtx(ctx, nl, pl, chip.Region, route.GRouteOptions{
		NX: 32, NY: 32, WirePitch: 1, CapacityFactor: 0.8,
	})
	tr.end(sp)
	sp = tr.begin(run, "route.steiner", ev)
	out.steiner = route.SteinerWLPool(ctx, pool, nl, pl)
	tr.end(sp)
	density.MaxUtilization(nl, pl, grid)
	tr.end(ev)
	out.overflow = gr.Overflow
	counts["route.overflow_edges"] += float64(gr.OverflowEdges)
	return out, nil
}

// sameResult reports how two results of one case differ, or "" when the
// placements are bit-identical and the evaluations agree exactly.
func sameResult(a, b jobResult) string {
	for i := range a.pl.X {
		if math.Float64bits(a.pl.X[i]) != math.Float64bits(b.pl.X[i]) ||
			math.Float64bits(a.pl.Y[i]) != math.Float64bits(b.pl.Y[i]) {
			return fmt.Sprintf("cell %d at (%v, %v) vs (%v, %v)", i, a.pl.X[i], a.pl.Y[i], b.pl.X[i], b.pl.Y[i])
		}
	}
	for _, p := range [][2]float64{{a.hpwl, b.hpwl}, {a.steiner, b.steiner}, {a.overflow, b.overflow}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return fmt.Sprintf("evaluation %v vs %v", p[0], p[1])
		}
	}
	return ""
}

// runPlacement runs an in-process placement workload: setupReps builds of
// the inputs, then units of work until the run's seconds have passed and
// every listing was placed. A unit places and evaluates every case of one
// listing. Untraced, it calls core.PlaceCtx and metrics.Evaluate; traced, it
// composes the layers itself under spans and is checked bit-identical
// against a core.PlaceCtx reference.
func runPlacement(ctx context.Context, cfg config, tr *tracer) (*childOutput, error) {
	dir, err := os.MkdirTemp(cfg.out, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := newResult()
	var cases [][]flowCase // per listing
	setupSecs := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		var secs float64
		cases, secs, err = buildCases(cfg, tr, fmt.Sprintf("setup-%d", rep), filepath.Join(dir, fmt.Sprint(rep)))
		if err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, secs)
		// Every build and every unit starts from a collected heap, as a
		// fresh dpplace process would, so rss_mb, the child's peak, measures
		// what one of them needs rather than when the collector last ran.
		runtime.GC()
	}

	// Traced runs first place every case through core.PlaceCtx: the
	// reference the composed flow must match bit for bit, and the untraced
	// pass time the tracing overhead is measured against.
	var ref [][]jobResult
	var refSecs [][]float64
	if tr != nil {
		ref = make([][]jobResult, listings)
		refSecs = make([][]float64, len(cases[0]))
		for k, cs := range cases {
			for i, c := range cs {
				sw := obs.StartStopwatch()
				r, err := runCore(ctx, c)
				refSecs[i] = append(refSecs[i], sw.Seconds())
				res.attempt(c.name+" (reference)", err)
				ref[k] = append(ref[k], r)
			}
		}
	}

	var (
		results   = make([][]jobResult, listings) // per listing, from its first unit
		passes    []float64                       // wall time of each unit
		caseSecs  = make([][]float64, len(cases[0]))
		units     []layerCounts
		outerSecs []float64
		kept      = make([]globalInput, len(cases[0]))
	)
	window := obs.StartStopwatch()
	for u := 0; u < listings || window.Seconds() < cfg.seconds; u++ {
		k := u % listings
		run := fmt.Sprintf("unit-%d", u)
		counts := layerCounts{}
		root := tr.begin(run, "unit", 0)
		pass := obs.StartStopwatch()
		outs := make([]jobResult, len(cases[k]))
		for i, c := range cases[k] {
			var r jobResult
			var err error
			sw := obs.StartStopwatch()
			if tr == nil {
				r, err = runCore(ctx, c)
			} else {
				var keep *globalInput
				if u == 0 {
					keep = &kept[i]
				}
				r, err = runComposed(ctx, c, tr, run, root, counts, &outerSecs, keep)
			}
			caseSecs[i] = append(caseSecs[i], sw.Seconds())
			res.attempt(c.name, err)
			outs[i] = r
		}
		passes = append(passes, pass.Seconds())
		tr.end(root)
		runtime.GC()
		if !res.Result.Correct {
			return res, nil
		}
		units = append(units, counts)
		if results[k] == nil {
			results[k] = outs
		}
		for i, c := range cases[k] {
			// Placement is deterministic: a listing placed again must come
			// out bit for bit the same, and a traced unit must match
			// core.PlaceCtx.
			if diff := sameResult(results[k][i], outs[i]); diff != "" {
				res.fail("%s: unit %d differs from the listing's first unit: %s", c.name, u, diff)
			}
			if ref != nil {
				if diff := sameResult(ref[k][i], outs[i]); diff != "" {
					res.fail("%s: composed flow differs from core.PlaceCtx: %s", c.name, diff)
				}
			}
		}
	}
	if !res.Result.Correct {
		return res, nil
	}

	if tr == nil {
		var hpwls, ovfl []float64
		for _, rs := range results {
			for _, r := range rs {
				hpwls = append(hpwls, r.hpwl)
				ovfl = append(ovfl, r.overflow)
			}
		}
		res.timing("setup_s", setupSecs)
		res.set("latency_s", passTime(caseSecs), "s")
		res.Samples["latency_s"] = passes
		res.set("hpwl", geomean(hpwls), "dbu")
		res.set("routed_overflow", mean(ovfl), "tracks")
		return res, nil
	}

	// The same global stage at one worker, from the exact input the first
	// traced unit handed it at two.
	w1 := 0.0
	for i, c := range cases[0] {
		in := kept[i]
		in.gOpt.Workers = 1
		in.pl = in.pl.Clone()
		sw := obs.StartStopwatch()
		if _, _, err := runGlobal(ctx, c, in); err != nil {
			return nil, fmt.Errorf("%s at one worker: %w", c.name, err)
		}
		w1 += sw.Seconds()
	}
	placementLayers(res, tr, units, outerSecs)
	res.set("global.parallel_speedup", w1/units[0]["global.stage_s"], "x")
	res.set("trace.overhead_frac", passTime(caseSecs)/passTime(refSecs)-1, "fraction")
	return res, nil
}

// passTime is the latency of a unit: the sum over its cases of each case's
// median time across units (and so across listings). Taking the median per
// case keeps one slow moment of the machine from moving the result.
func passTime(caseSecs [][]float64) float64 {
	t := 0.0
	for _, xs := range caseSecs {
		t += median(xs)
	}
	return t
}

// placementLayers sets the per-layer metrics of a traced placement run.
// Times are self times per unit of work and counts are sums per unit, both
// as the median over units; gen and bookshelf times are per input build.
func placementLayers(res *childOutput, tr *tracer, units []layerCounts, outerSecs []float64) {
	self := tr.selfTimes()
	for _, l := range []struct{ metric, span, runs string }{
		{"gen.generate_s", "gen.generate", "setup-"},
		{"bookshelf.write_s", "bookshelf.write", "setup-"},
		{"bookshelf.read_s", "bookshelf.read", "setup-"},
		{"datapath.extract_s", "datapath.extract", "unit-"},
		{"global.init_s", "global.init", "unit-"},
		{"global.solve_s", "global.solve", "unit-"},
		{"legal.legalize_s", "legal.legalize", "unit-"},
		{"detail.improve_s", "detail.improve", "unit-"},
		{"detail.columns_s", "detail.columns", "unit-"},
		{"metrics.evaluate_s", "metrics.evaluate", "unit-"},
		{"route.rudy_s", "route.rudy", "unit-"},
		{"route.groute_s", "route.groute", "unit-"},
		{"route.steiner_s", "route.steiner", "unit-"},
	} {
		res.set(l.metric, medianSelf(self, l.runs, l.span), "s")
	}
	for _, name := range []string{
		"datapath.grouped_cells", "global.outer_iters", "global.func_evals",
		"global.evals_full", "global.evals_delta", "multilevel.levels",
		"congestion.snapshots", "congestion.inflated_cells", "legal.group_blocks",
		"detail.moves", "detail.column_swaps", "route.overflow_edges",
	} {
		res.set(name, medianCount(units, name), "count")
	}
	res.set("multilevel.level_solve_s", medianCount(units, "multilevel.level_solve_s"), "s")
	res.set("multilevel.overhead_s", medianCount(units, "multilevel.overhead_s"), "s")
	dirty := make([]float64, len(units))
	for i, u := range units {
		if n := u["global.net_recomputes"] + u["global.net_reuses"]; n > 0 {
			dirty[i] = u["global.net_recomputes"] / n
		}
	}
	res.set("global.dirty_net_ratio", median(dirty), "ratio")
	if evals := res.value("global.func_evals"); evals > 0 {
		res.set("global.s_per_eval", res.value("global.solve_s")/evals, "s")
	}
	res.set("global.outer_s_p50", median(outerSecs), "s")
}

// medianCount returns the median over units of one per-unit count.
func medianCount(units []layerCounts, name string) float64 {
	xs := make([]float64, len(units))
	for i, u := range units {
		xs[i] = u[name]
	}
	return median(xs)
}
