package core

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/place/congestion"
)

// ReportSchema identifies the run-report JSON layout.
const ReportSchema = "dpplace-run-report/v1"

// RunReport is the machine-readable summary of one placement run: the final
// quality numbers, per-stage timings, aggregated counters, degradations and
// the λ-schedule trajectory. It is what dpplace -report writes and what the
// daemon stores as each job's report.json.
type RunReport struct {
	Schema  string `json:"schema"`
	Design  string `json:"design"`
	Mode    string `json:"mode"`
	Exit    string `json:"exit"` // ok|timeout|diverged|degenerate-groups|malformed-input|error|interrupted
	Partial bool   `json:"partial,omitempty"`

	// Workers is the resolved worker count of the parallel placement engine
	// (1 = fully serial).
	Workers int `json:"workers,omitempty"`

	// Incremental-evaluation effectiveness of the global-place engine.
	// FullRecomputes counts evaluations that ran a full value pass over
	// every net (the start of a solve, each line-search probe, each
	// rollback); DeltaRecomputes counts accepted iterates' gradients, which
	// run from the exponentials the winning probe's value pass stored.
	// DirtyNetRatio is the per-net share of the first kind: net value
	// computations over value computations plus gradient-pass reuses, so
	// 1.0 means no gradient reused a value pass and lower values mean more
	// of the evaluations were accepted iterates' gradients.
	DirtyNetRatio   float64 `json:"dirty_net_ratio,omitempty"`
	FullRecomputes  int64   `json:"full_recomputes,omitempty"`
	DeltaRecomputes int64   `json:"delta_recomputes,omitempty"`

	// Levels and ClusterRatio describe the multilevel V-cycle when it ran:
	// Levels counts placement levels (1 = flat), ClusterRatio is the
	// coarsest level's movable-cell count relative to the flat netlist.
	// Both are zero for flat runs.
	Levels       int     `json:"levels,omitempty"`
	ClusterRatio float64 `json:"cluster_ratio,omitempty"`

	HPWL         HPWLSummary           `json:"hpwl"`
	StageSeconds map[string]float64    `json:"stage_seconds,omitempty"`
	Counters     map[string]int64      `json:"counters,omitempty"`
	Degradations []Degradation         `json:"degradations,omitempty"`
	Trajectory   []obs.TrajectoryPoint `json:"trajectory,omitempty"`

	// Congestion summarizes the congestion feedback loop of the global solve
	// when it was enabled; absent when the loop was off.
	Congestion *congestion.Stats `json:"congestion,omitempty"`

	// Metrics holds the evaluation report when the caller computed one.
	Metrics *metrics.Report `json:"metrics,omitempty"`

	// MetricsSnapshot captures the daemon's counter and gauge values at the
	// moment the job finished (obs/metrics Registry.Snapshot) — fleet context
	// frozen next to the per-run story. Absent for CLI runs and for daemons
	// without a registry.
	MetricsSnapshot map[string]float64 `json:"metrics_snapshot,omitempty"`
}

// HPWLSummary carries the wirelength at each pipeline boundary.
type HPWLSummary struct {
	Global float64 `json:"global"`
	Legal  float64 `json:"legal,omitempty"`
	Final  float64 `json:"final"`
}

// RunReport assembles the dpplace-run-report/v1 document of a finished run
// from its result and the recorder that observed it; exit is the
// machine-readable exit classification. dpplace -report and the daemon's
// report.json both come from here; callers add what only they know (the
// evaluation report, extra counters, a metrics snapshot).
func (r *Result) RunReport(design string, mode Mode, exit string, rec *obs.Recorder) *RunReport {
	out := &RunReport{
		Design:  design,
		Mode:    mode.String(),
		Exit:    exit,
		Partial: r.Partial,
		Workers: r.GlobalResult.Workers,
		HPWL: HPWLSummary{
			Global: r.HPWLGlobal,
			Legal:  r.HPWLLegal,
			Final:  r.HPWLFinal,
		},
		StageSeconds: map[string]float64{
			"extract":  r.Times.Extract.Seconds(),
			"global":   r.Times.Global.Seconds(),
			"legalize": r.Times.Legalize.Seconds(),
			"detail":   r.Times.Detail.Seconds(),
		},
		Counters:        rec.Counters(),
		Degradations:    r.Degradations,
		Trajectory:      rec.Trajectory(),
		Congestion:      r.GlobalResult.Congestion,
		DirtyNetRatio:   r.GlobalResult.DirtyNetRatio(),
		FullRecomputes:  r.GlobalResult.FullEvals,
		DeltaRecomputes: r.GlobalResult.DeltaEvals,
	}
	if r.Multilevel != nil {
		out.Levels = r.Multilevel.Levels
		out.ClusterRatio = r.Multilevel.ClusterRatio
	}
	return out
}

// WriteReportFile writes the report as indented JSON.
func WriteReportFile(path string, rep *RunReport) error {
	if rep.Schema == "" {
		rep.Schema = ReportSchema
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("core: marshal report: %w", err)
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("core: write report: %w", err)
	}
	return nil
}
