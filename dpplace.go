// Package dpplace is the public API of the structure-aware placement
// library — the importable surface of this repository. It re-exports the
// pipeline (core), the benchmark generator (gen), datapath extraction
// (datapath) and the evaluation report (metrics) so downstream users never
// touch the internal tree.
//
// Minimal flow:
//
//	bench := dpplace.Generate(dpplace.BenchConfig{Bits: 16,
//	    Units: []dpplace.UnitKind{dpplace.Adder}, RandomCells: 500})
//	res, err := dpplace.Place(bench.Netlist, bench.Core, bench.Placement,
//	    dpplace.Options{Mode: dpplace.StructureAware})
package dpplace

import (
	"context"
	"io"

	"repro/internal/bookshelf"
	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/place/multilevel"
	"repro/internal/viz"
)

// Re-exported pipeline types.
type (
	// Options configures a placement run; see core.Options.
	Options = core.Options
	// Result is the pipeline outcome; see core.Result.
	Result = core.Result
	// Mode selects baseline or structure-aware placement.
	Mode = core.Mode
	// DegradePolicy selects the reaction to degenerate datapath groups.
	DegradePolicy = core.DegradePolicy
	// Degradation records one graceful-degradation event of a run.
	Degradation = core.Degradation
	// StageTimes records the elapsed wall clock of each pipeline stage.
	StageTimes = core.StageTimes
	// MultilevelOptions tunes V-cycle clustered global placement; see
	// multilevel.Options (enable via Options.Multilevel).
	MultilevelOptions = multilevel.Options
	// MultilevelResult reports the V-cycle levels; see multilevel.Result.
	MultilevelResult = multilevel.Result

	// Netlist is the design hypergraph.
	Netlist = netlist.Netlist
	// Placement holds per-cell coordinates.
	Placement = netlist.Placement
	// Core is the chip core area and row structure.
	Core = geom.Core

	// BenchConfig describes a synthetic benchmark; see gen.Config.
	BenchConfig = gen.Config
	// Benchmark is a generated design with ground truth.
	Benchmark = gen.Benchmark
	// UnitKind selects a datapath unit archetype.
	UnitKind = gen.UnitKind

	// ExtractOptions controls datapath extraction.
	ExtractOptions = datapath.Options
	// Extraction is the recovered group structure.
	Extraction = datapath.Extraction
	// ExtractionScore is pairwise same-slice precision/recall.
	ExtractionScore = datapath.Score

	// Report is the placement quality summary.
	Report = metrics.Report
	// ReportOptions tunes evaluation.
	ReportOptions = metrics.Options

	// Design bundles a Bookshelf benchmark.
	Design = bookshelf.Design

	// Recorder is the flight recorder: spans, counters, solver telemetry
	// and leveled logging; see obs.Recorder.
	Recorder = obs.Recorder
	// RunReport is the machine-readable run summary; see core.RunReport.
	RunReport = core.RunReport
	// TrajectoryPoint is one λ-schedule snapshot; see obs.TrajectoryPoint.
	TrajectoryPoint = obs.TrajectoryPoint
)

// Placement modes.
const (
	Baseline       = core.Baseline
	StructureAware = core.StructureAware
)

// Degradation policies.
const (
	// DegradeFallback places problematic groups as plain cells (default).
	DegradeFallback = core.DegradeFallback
	// DegradeFail aborts with ErrDegenerateGroups instead.
	DegradeFail = core.DegradeFail
)

// Sentinel errors of the pipeline, for errors.Is classification.
var (
	// ErrTimeout marks results cut short by a deadline or budget.
	ErrTimeout = core.ErrTimeout
	// ErrDiverged marks solves abandoned after repeated numerical failure.
	ErrDiverged = core.ErrDiverged
	// ErrDegenerateGroups marks unusable extracted groups under DegradeFail.
	ErrDegenerateGroups = core.ErrDegenerateGroups
	// ErrMalformedInput marks rejected input files.
	ErrMalformedInput = core.ErrMalformedInput
)

// Datapath unit archetypes for the benchmark generator.
const (
	Adder   = gen.Adder
	MuxTree = gen.MuxTree
	Shifter = gen.Shifter
	RegBank = gen.RegBank
)

// NewRecorder returns a disabled flight recorder; attach sinks with
// SetTrace/SetLog or Collect, then thread it into PlaceCtx with WithRecorder.
func NewRecorder() *Recorder {
	return obs.New()
}

// WithRecorder returns ctx carrying rec, so PlaceCtx (and every stage under
// it) records into the flight recorder. Recording is passive: a traced run
// produces a bit-identical placement.
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	return obs.NewContext(ctx, rec)
}

// Place runs the full placement pipeline to completion; see core.PlaceCtx.
func Place(nl *Netlist, chip *Core, initial *Placement, opt Options) (*Result, error) {
	return core.PlaceCtx(context.Background(), nl, chip, initial, opt)
}

// PlaceCtx is Place with cooperative cancellation; see core.PlaceCtx. The
// context's deadline is the run's wall-clock budget. On expiry the returned
// Result is non-nil, carries the best iterate found with Partial set, and
// the error wraps ErrTimeout.
func PlaceCtx(ctx context.Context, nl *Netlist, chip *Core, initial *Placement, opt Options) (*Result, error) {
	return core.PlaceCtx(ctx, nl, chip, initial, opt)
}

// Generate builds a synthetic datapath-intensive benchmark; see gen.Generate.
func Generate(cfg BenchConfig) *Benchmark {
	return gen.Generate(cfg)
}

// Extract runs datapath extraction on a netlist; see datapath.Extract.
func Extract(nl *Netlist, opt ExtractOptions) *Extraction {
	return datapath.Extract(nl, opt)
}

// DefaultExtractOptions returns the extraction defaults.
func DefaultExtractOptions() ExtractOptions {
	return datapath.DefaultOptions()
}

// ScoreExtraction compares predicted labels against ground truth.
func ScoreExtraction(truth, got datapath.Labels) ExtractionScore {
	return datapath.Compare(truth, got)
}

// Evaluate computes the quality report of a placement; see metrics.Evaluate.
func Evaluate(nl *Netlist, pl *Placement, chip *Core, opt ReportOptions) Report {
	return metrics.Evaluate(nl, pl, chip, opt)
}

// ReadBookshelf loads a design from a Bookshelf .aux file.
func ReadBookshelf(auxPath string) (*Design, error) {
	return bookshelf.ReadAux(auxPath)
}

// WriteBookshelf writes a design as base.aux (plus referenced files) in dir.
func WriteBookshelf(dir, base string, d *Design) (string, error) {
	return bookshelf.WriteAux(dir, base, d)
}

// WriteSVG renders a placement (optionally with extraction coloring) as SVG.
func WriteSVG(w io.Writer, nl *Netlist, pl *Placement, chip *Core, ext *Extraction, title string) error {
	return viz.WriteSVG(w, nl, pl, chip, viz.Options{Extraction: ext, Title: title})
}
