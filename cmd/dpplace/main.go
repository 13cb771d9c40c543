// Command dpplace places a Bookshelf design with the structure-aware flow
// (or the generic baseline) and writes the legal placement back out.
//
// Usage:
//
//	dpplace [-mode structure-aware|baseline] [-model wa|lse] [-out out.pl]
//	        [-outer 24] [-inner 50] [-timeout 0] [-on-degrade fallback|fail]
//	        [-congestion] [-inflate-max 2.0]
//	        [-multilevel] [-cluster-ratio 0.22] [-levels 0] [-workers N]
//	        [-trace run.jsonl] [-report out.json] [-v] [-quiet]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-pprof :6060]
//	        design.aux
//
// Routability: -congestion turns on the congestion feedback loop inside
// global placement — periodic RUDY snapshots inflate the modeled area of
// cells sitting in over-demand bins (monotone, capped at -inflate-max) so the
// density spreader reserves routing space where wiring is densest. The loop
// is deterministic and keeps placements bit-identical at every -workers
// setting; run reports gain a `congestion` block with the overflow
// trajectory.
//
// Performance: -workers shards the analytical placer's hot paths (WA
// wirelength, density, routing estimates) across a bounded worker pool.
// 0 (the default) uses every core; 1 runs the exact serial path. The
// placement is bit-identical at every worker count — parallelism only
// trades wall clock for cores — so sweeping -workers is always safe.
// -multilevel replaces the flat global-placement stage with the V-cycle:
// connectivity-driven coarsening (extracted datapath groups stay atomic),
// a cheap solve of the coarsest cluster netlist, then interpolation and
// warm-started refinement level by level — the scale lever for large
// designs. -cluster-ratio and -levels tune the hierarchy.
//
// Observability: -trace writes the flight-recorder JSONL trace (stage spans,
// per-iteration solver telemetry, λ-schedule trajectory, health events);
// -report writes a machine-readable run report (final metrics, per-stage
// timings, counters, degradations, exit classification). -v enables debug
// logging, -quiet restricts stderr to warnings and suppresses the stdout
// summary. The pprof flags profile the run or serve net/http/pprof live.
// With all observability flags off the recorder is disabled and the
// placement is bit-identical to an uninstrumented run.
//
// Exit codes classify the failure so scripts can react without parsing
// stderr:
//
//	0  success (possibly with recorded degradations under -on-degrade fallback)
//	1  unexpected error
//	2  usage error, including a numeric flag out of its range (checked
//	   before the design is read)
//	3  deadline exceeded (-timeout); a legal partial result, when one
//	   exists, is still written to -out
//	4  malformed input file
//	5  degenerate datapath groups under -on-degrade fail
//	6  interrupted (SIGINT/SIGTERM); the best-iterate partial placement and
//	   the run report are still written, same as a deadline stop
//
// A single SIGINT or SIGTERM stops the run cooperatively at the next solver
// checkpoint — the run keeps its best iterate, writes every requested
// artifact that is safe to write, and exits 6. A second signal kills the
// process immediately.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/bookshelf"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/place/congestion"
	"repro/internal/place/global"
	"repro/internal/place/multilevel"
	"repro/internal/viz"
)

// Exit codes.
const (
	exitOK          = 0
	exitError       = 1
	exitUsage       = 2
	exitTimeout     = 3
	exitMalformed   = 4
	exitDegenerate  = 5
	exitInterrupted = 6
)

// classify maps a pipeline error to its exit code.
func classify(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, core.ErrTimeout):
		return exitTimeout
	case errors.Is(err, core.ErrMalformedInput):
		return exitMalformed
	case errors.Is(err, core.ErrDegenerateGroups):
		return exitDegenerate
	default:
		return exitError
	}
}

func main() {
	os.Exit(run())
}

// cliFlags holds every dpplace flag value. Flags are registered through
// registerFlags so the usage text and the README drift test share one source
// of truth.
type cliFlags struct {
	mode         *string
	model        *string
	outPl        *string
	outSVG       *string
	outer        *int
	inner        *int
	timeout      *time.Duration
	onDegrade    *string
	congestion   *bool
	inflateMax   *float64
	multilevel   *bool
	clusterRatio *float64
	levels       *int
	workers      *int
	tracePath    *string
	reportPath   *string
	verbose      *bool
	quiet        *bool
	cpuProfile   *string
	memProfile   *string
	pprofAddr    *string
}

// flagGroups themes the usage text. Every registered flag must appear in
// exactly one group (TestUsageGroupsCoverAllFlags enforces it).
var flagGroups = []struct {
	title string
	names []string
}{
	{"Run control", []string{"mode", "model", "out", "svg", "outer", "inner", "timeout", "on-degrade", "congestion", "inflate-max"}},
	{"Performance", []string{"multilevel", "cluster-ratio", "levels", "workers", "cpuprofile", "memprofile", "pprof"}},
	{"Observability", []string{"trace", "report", "v", "quiet"}},
}

// registerFlags declares dpplace's flags on fs and returns their values.
func registerFlags(fs *flag.FlagSet) *cliFlags {
	f := &cliFlags{}
	f.mode = fs.String("mode", "structure-aware", "placement mode: structure-aware or baseline")
	f.model = fs.String("model", global.DefaultWLModel, "smooth wirelength model: wa or lse")
	f.outPl = fs.String("out", "", "output .pl path (default: stdout summary only)")
	f.outSVG = fs.String("svg", "", "render the final placement to this SVG path")
	f.outer = fs.Int("outer", global.DefaultOuterIters, "max outer (λ-schedule) iterations")
	f.inner = fs.Int("inner", global.DefaultInnerIters, "conjugate-gradient iterations per stage")
	f.timeout = fs.Duration("timeout", 0, "wall-clock budget for the whole pipeline (0 = none)")
	f.onDegrade = fs.String("on-degrade", "fallback",
		"reaction to degenerate/diverging datapath groups: fallback (place them as plain cells) or fail")
	f.congestion = fs.Bool("congestion", false,
		"congestion feedback inside global placement: periodic RUDY snapshots inflate cells in over-demand bins so the spreader reserves routing space")
	f.inflateMax = fs.Float64("inflate-max", 2.0,
		"cap on the per-cell congestion area multiplier (with -congestion)")
	f.multilevel = fs.Bool("multilevel", false,
		"V-cycle clustered global placement: coarsen the netlist (datapath groups stay atomic), place the clusters, interpolate and refine level by level")
	f.clusterRatio = fs.Float64("cluster-ratio", 0.22,
		"target per-level coarsening ratio, coarse/fine movable cells (with -multilevel)")
	f.levels = fs.Int("levels", 0,
		"max coarsening levels, 0 = auto (with -multilevel)")
	f.workers = fs.Int("workers", 0,
		"worker count for the parallel hot paths (0 = all cores, 1 = serial; placements are bit-identical at every setting)")
	f.tracePath = fs.String("trace", "", "write the flight-recorder JSONL trace to this path")
	f.reportPath = fs.String("report", "", "write the machine-readable run report (JSON) to this path")
	f.verbose = fs.Bool("v", false, "debug logging on stderr")
	f.quiet = fs.Bool("quiet", false, "warnings only on stderr; suppress the stdout summary")
	f.cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this path")
	f.memProfile = fs.String("memprofile", "", "write a heap profile to this path at exit")
	f.pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	fs.Usage = func() { printUsage(fs) }
	return f
}

// printUsage writes the themed usage text: flags grouped by what the user is
// trying to do, instead of one flat alphabetical wall.
func printUsage(fs *flag.FlagSet) {
	w := fs.Output()
	fmt.Fprintf(w, "usage: dpplace [flags] design.aux\n\n")
	fmt.Fprintf(w, "Place a Bookshelf design with the structure-aware flow and write the\nlegal placement back out.\n")
	for _, g := range flagGroups {
		fmt.Fprintf(w, "\n%s:\n", g.title)
		for _, name := range g.names {
			fl := fs.Lookup(name)
			if fl == nil {
				continue
			}
			def := ""
			if fl.DefValue != "" && fl.DefValue != "false" && fl.DefValue != "0" && fl.DefValue != "0s" {
				def = fmt.Sprintf(" (default %s)", fl.DefValue)
			}
			fmt.Fprintf(w, "  -%s\n        %s%s\n", fl.Name, fl.Usage, def)
		}
	}
}

// modes and degradePolicies map the -mode and -on-degrade names to their
// options.
var (
	modes = map[string]core.Mode{
		"structure-aware": core.StructureAware,
		"baseline":        core.Baseline,
	}
	degradePolicies = map[string]core.DegradePolicy{
		"fallback": core.DegradeFallback,
		"fail":     core.DegradeFail,
	}
)

// checkRanges rejects flag values the run cannot use: an unknown -mode,
// -model or -on-degrade name, and a numeric value outside its range, which
// the engine would otherwise silently replace with its default. The negated
// float comparisons reject NaN too.
func checkRanges(f *cliFlags) error {
	if _, ok := modes[*f.mode]; !ok {
		return fmt.Errorf("-mode %q unknown: must be structure-aware or baseline", *f.mode)
	}
	if *f.model != "wa" && *f.model != "lse" {
		return fmt.Errorf("-model %q unknown: must be wa or lse", *f.model)
	}
	if _, ok := degradePolicies[*f.onDegrade]; !ok {
		return fmt.Errorf("-on-degrade %q unknown: must be fallback or fail", *f.onDegrade)
	}
	if !(*f.inflateMax > 1) {
		return fmt.Errorf("-inflate-max %v out of range: must be > 1", *f.inflateMax)
	}
	if !(*f.clusterRatio > 0 && *f.clusterRatio < 1) {
		return fmt.Errorf("-cluster-ratio %v out of range: must be in (0, 1)", *f.clusterRatio)
	}
	for _, c := range []struct {
		name string
		v    int
	}{{"outer", *f.outer}, {"inner", *f.inner}, {"levels", *f.levels}, {"workers", *f.workers}} {
		if c.v < 0 {
			return fmt.Errorf("-%s %d out of range: must be >= 0", c.name, c.v)
		}
	}
	if *f.timeout < 0 {
		return fmt.Errorf("-timeout %v out of range: must be >= 0", *f.timeout)
	}
	return nil
}

// run is main with deferred cleanup intact: profiles and the trace buffer
// flush on every exit path, which os.Exit inside the body would skip.
func run() int {
	f := registerFlags(flag.CommandLine)
	flag.Parse()
	mode, model, outPl, outSVG := f.mode, f.model, f.outPl, f.outSVG
	outer, inner, timeout, onDegrade := f.outer, f.inner, f.timeout, f.onDegrade
	tracePath, reportPath, verbose, quiet := f.tracePath, f.reportPath, f.verbose, f.quiet
	cpuProfile, memProfile, pprofAddr := f.cpuProfile, f.memProfile, f.pprofAddr

	rec := obs.New()
	level := obs.Info
	if *verbose {
		level = obs.Debug
	}
	if *quiet {
		level = obs.Warn
	}
	rec.SetLog(os.Stderr, level)
	fatal := func(code int, format string, args ...any) int {
		rec.Logf(obs.Error, "dpplace", format, args...)
		return code
	}

	if flag.NArg() != 1 {
		flag.Usage()
		return exitUsage
	}
	if err := checkRanges(f); err != nil {
		return fatal(exitUsage, "%v", err)
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fatal(exitError, "%v", err)
		}
		bw := bufio.NewWriter(f)
		rec.SetTrace(bw)
		defer func() {
			bw.Flush()
			f.Close()
		}()
	}
	if *reportPath != "" {
		rec.Collect()
	}
	if *pprofAddr != "" {
		rec.Logf(obs.Info, "dpplace", "pprof server on http://%s/debug/pprof/", *pprofAddr)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				rec.Logf(obs.Warn, "dpplace", "pprof server: %v", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fatal(exitError, "%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fatal(exitError, "start CPU profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				rec.Logf(obs.Error, "dpplace", "%v", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				rec.Logf(obs.Error, "dpplace", "write heap profile: %v", err)
			}
			f.Close()
		}()
	}

	d, err := bookshelf.ReadAux(flag.Arg(0))
	if err != nil {
		return fatal(classify(err), "%v", err)
	}
	if d.Core == nil {
		return fatal(exitMalformed, "design has no .scl row definition")
	}

	opt := core.Options{
		Mode:       modes[*mode],
		OnDegrade:  degradePolicies[*onDegrade],
		Multilevel: *f.multilevel,
		MultilevelOpts: multilevel.Options{
			ClusterRatio: *f.clusterRatio,
			MaxLevels:    *f.levels,
		},
		Global: global.Options{
			WLModel:       *model,
			MaxOuterIters: *outer,
			InnerIters:    *inner,
			Workers:       *f.workers,
			Congestion: congestion.Options{
				Enable:     *f.congestion,
				MaxInflate: *f.inflateMax,
			},
		},
	}
	// SIGINT/SIGTERM cancel the run cooperatively: the pipeline stops at its
	// next checkpoint and returns the best iterate with Partial set, exactly
	// like a -timeout stop. NotifyContext unregisters on the first signal,
	// so a second one falls back to default handling and kills the process.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	runCtx, cancel := pipeline.WithBudget(sigCtx, *timeout)
	defer cancel()

	ctx := obs.NewContext(runCtx, rec)
	res, err := core.PlaceCtx(ctx, d.Netlist, d.Core, d.Placement, opt)
	interrupted := sigCtx.Err() != nil && err != nil && errors.Is(err, core.ErrTimeout)
	if interrupted {
		rec.Logf(obs.Warn, "dpplace", "interrupted by signal; keeping the best iterate")
	}
	if err != nil && res == nil {
		if interrupted {
			return fatal(exitInterrupted, "%v", err)
		}
		return fatal(classify(err), "%v", err)
	}

	var rep *metrics.Report
	if res.LegalityChecked {
		r := metrics.Evaluate(d.Netlist, res.Placement, d.Core,
			metrics.Options{Obs: rec, Workers: *f.workers})
		rep = &r
	}

	if !*quiet {
		printSummary(os.Stdout, opt.Mode, res, rep)
	}

	if *reportPath != "" {
		exitLabel := pipeline.Classify(err)
		if interrupted {
			exitLabel = "interrupted"
		}
		if werr := writeReport(*reportPath, d.Netlist.Name, opt.Mode, res, rep, exitLabel, rec); werr != nil {
			return fatal(exitError, "%v", werr)
		}
		rec.Logf(obs.Info, "dpplace", "run report: %s", *reportPath)
	}

	if *outSVG != "" {
		f, ferr := os.Create(*outSVG)
		if ferr != nil {
			return fatal(exitError, "%v", ferr)
		}
		if werr := viz.WriteSVG(f, d.Netlist, res.Placement, d.Core, viz.Options{
			Extraction: res.Extraction,
			Title:      fmt.Sprintf("%s — %s, HPWL %.0f", d.Netlist.Name, opt.Mode, res.HPWLFinal),
		}); werr != nil {
			f.Close()
			return fatal(exitError, "%v", werr)
		}
		if cerr := f.Close(); cerr != nil {
			return fatal(exitError, "%v", cerr)
		}
		if !*quiet {
			fmt.Printf("svg:             %s\n", *outSVG)
		}
	}
	// A partial placement is only written when it is known legal — never
	// hand a corrupt .pl to downstream tools.
	if *outPl != "" {
		if res.Partial && !res.LegalityChecked {
			rec.Logf(obs.Warn, "dpplace", "partial result is not legal; not writing %s", *outPl)
		} else {
			if werr := bookshelf.WritePlFile(*outPl, d.Netlist, res.Placement); werr != nil {
				return fatal(exitError, "%v", werr)
			}
			if !*quiet {
				fmt.Printf("placement:       %s\n", *outPl)
			}
		}
	}
	if err != nil {
		if interrupted {
			return fatal(exitInterrupted, "%v", err)
		}
		return fatal(classify(err), "%v", err)
	}
	return exitOK
}

// printSummary writes the human-readable result, surfacing degradations and
// health-guard recoveries rather than leaving them buried in the result
// struct.
func printSummary(w *os.File, mode core.Mode, res *core.Result, rep *metrics.Report) {
	fmt.Fprintf(w, "mode:            %s\n", mode)
	if res.Extraction != nil {
		fmt.Fprintf(w, "groups:          %d (%d cells)\n", len(res.Extraction.Groups), res.GroupedCells)
	}
	if res.Multilevel != nil {
		fmt.Fprintf(w, "multilevel:      %d levels (coarsest %d cells, ratio %.2f)\n",
			res.Multilevel.Levels, res.Multilevel.CoarsestCells, res.Multilevel.ClusterRatio)
	}
	fmt.Fprintf(w, "HPWL global:     %.0f\n", res.HPWLGlobal)
	if res.LegalityChecked {
		fmt.Fprintf(w, "HPWL legal:      %.0f\n", res.HPWLLegal)
		fmt.Fprintf(w, "HPWL final:      %.0f\n", res.HPWLFinal)
	}
	if rep != nil {
		fmt.Fprintf(w, "StWL final:      %.0f\n", rep.SteinerWL)
		fmt.Fprintf(w, "congestion ACE5: %.2f\n", rep.Congestion.ACE5)
	}
	fmt.Fprintf(w, "time:            %.2fs (extract %.2fs, global %.2fs, legal %.2fs, detail %.2fs)\n",
		res.Times.Total().Seconds(), res.Times.Extract.Seconds(),
		res.Times.Global.Seconds(), res.Times.Legalize.Seconds(), res.Times.Detail.Seconds())
	if g := res.GlobalResult; g.NetRecomputes+g.NetReuses > 0 {
		fmt.Fprintf(w, "incremental:     dirty-net ratio %.3f (%d full, %d delta evals)\n",
			g.DirtyNetRatio(), g.FullEvals, g.DeltaEvals)
	}
	if c := res.GlobalResult.Congestion; c != nil {
		fmt.Fprintf(w, "congestion:      %d snapshots, %d cells inflated (max ×%.2f)\n",
			c.Snapshots, c.InflatedCells, c.MaxInflation)
	}

	diag := res.GlobalResult.Diagnostics
	if diag.Recoveries > 0 || diag.Rollbacks > 0 {
		fmt.Fprintf(w, "recoveries:      %d solver, %d rollbacks\n", diag.Recoveries, diag.Rollbacks)
	}
	for _, deg := range res.Degradations {
		if deg.Group >= 0 {
			fmt.Fprintf(w, "degraded:        %s group %d: %s\n", deg.Stage, deg.Group, deg.Reason)
		} else {
			fmt.Fprintf(w, "degraded:        %s: %s\n", deg.Stage, deg.Reason)
		}
	}
	if res.Partial {
		fmt.Fprintf(w, "partial:         pipeline stopped at the deadline\n")
	}
}

// writeReport assembles and writes the machine-readable run report.
// exitLabel is the machine-readable exit classification ("interrupted" for
// signal stops, pipeline.Classify(err) otherwise).
func writeReport(path, design string, mode core.Mode, res *core.Result, rep *metrics.Report, exitLabel string, rec *obs.Recorder) error {
	out := res.RunReport(design, mode, exitLabel, rec)
	if n := faultinject.FiredTotal(); n > 0 {
		out.Counters["fault_injections"] = int64(n)
	}
	out.Metrics = rep
	return core.WriteReportFile(path, out)
}
