package obs

import (
	"encoding/json"
	"fmt"
	"os"
)

// ReportSchema identifies the run-report JSON layout.
const ReportSchema = "dpplace-run-report/v1"

// RunReport is the machine-readable summary of one placement run: the final
// quality numbers, per-stage timings, aggregated counters, degradations and
// the λ-schedule trajectory. It is what -report writes and what the bench
// harness stores as BENCH_*.json.
type RunReport struct {
	Schema  string `json:"schema"`
	Design  string `json:"design"`
	Mode    string `json:"mode"`
	Exit    string `json:"exit"` // ok|timeout|diverged|degenerate-groups|malformed-input|error
	Partial bool   `json:"partial,omitempty"`

	// Workers is the resolved worker count of the parallel placement engine
	// (1 = fully serial). ParallelSpeedup is the wall-clock speedup of the
	// global-place stage relative to a workers=1 run of the same design; it
	// is filled by sweep harnesses (make bench) that have both timings, and
	// is zero in single runs.
	Workers         int     `json:"workers,omitempty"`
	ParallelSpeedup float64 `json:"parallel_speedup,omitempty"`

	// Incremental-evaluation effectiveness of the global-place engine.
	// DirtyNetRatio is net recomputations over total per-net decisions
	// (recomputations + reuses): 1.0 means every evaluation recomputed every
	// net (no reuse), small values mean most evaluations found their point
	// unchanged. FullRecomputes and DeltaRecomputes count whole objective
	// evaluations by kind: ones that recomputed every net versus ones that
	// reused the cached per-net results.
	DirtyNetRatio   float64 `json:"dirty_net_ratio,omitempty"`
	FullRecomputes  int64   `json:"full_recomputes,omitempty"`
	DeltaRecomputes int64   `json:"delta_recomputes,omitempty"`

	// Levels and ClusterRatio describe the multilevel V-cycle when it ran:
	// Levels counts placement levels (1 = flat), ClusterRatio is the
	// coarsest level's movable-cell count relative to the flat netlist.
	// Both are zero for flat runs.
	Levels       int     `json:"levels,omitempty"`
	ClusterRatio float64 `json:"cluster_ratio,omitempty"`

	HPWL         HPWLSummary        `json:"hpwl"`
	StageSeconds map[string]float64 `json:"stage_seconds,omitempty"`
	Counters     map[string]int64   `json:"counters,omitempty"`
	Degradations []DegradeEntry     `json:"degradations,omitempty"`
	Trajectory   []TrajectoryPoint  `json:"trajectory,omitempty"`

	// Congestion summarizes the congestion feedback loop of the global solve
	// when it was enabled. Additive to dpplace-run-report/v1: absent when the
	// loop was off.
	Congestion *CongestionReport `json:"congestion,omitempty"`

	// Metrics holds the evaluation report (metrics.Report) when the caller
	// computed one. Typed as any so this package stays dependency-free.
	Metrics any `json:"metrics,omitempty"`

	// MetricsSnapshot captures the daemon's counter and gauge values at the
	// moment the job finished (obs/metrics Registry.Snapshot) — fleet context
	// frozen next to the per-run story. Additive to dpplace-run-report/v1:
	// absent for CLI runs and for daemons without a registry.
	MetricsSnapshot map[string]float64 `json:"metrics_snapshot,omitempty"`
}

// CongestionReport is the run-report `congestion` block: what the feedback
// loop did during the global solve. Mirrors congestion.Stats field-for-field;
// duplicated here so this package stays dependency-free.
type CongestionReport struct {
	// Snapshots is the number of RUDY snapshots taken; Applied counts the
	// ones that changed the inflation state.
	Snapshots int `json:"snapshots"`
	Applied   int `json:"applied,omitempty"`
	// InflatedCells and MaxInflation describe the final inflation state.
	InflatedCells int     `json:"inflated_cells,omitempty"`
	MaxInflation  float64 `json:"max_inflation,omitempty"`
	// FrozenAtSnapshot is the 1-based snapshot index at which the cool-down
	// froze the schedule (0: never froze).
	FrozenAtSnapshot int `json:"frozen_at_snapshot,omitempty"`
	// Overflow is the RUDY-overflow trajectory, one entry per snapshot.
	Overflow []float64 `json:"overflow,omitempty"`
}

// HPWLSummary carries the wirelength at each pipeline boundary.
type HPWLSummary struct {
	Global float64 `json:"global"`
	Legal  float64 `json:"legal,omitempty"`
	Final  float64 `json:"final"`
}

// DegradeEntry mirrors one graceful-degradation event in the report.
type DegradeEntry struct {
	Stage  string `json:"stage"`
	Group  int    `json:"group"`
	Reason string `json:"reason"`
}

// WriteReportFile writes the report as indented JSON.
func WriteReportFile(path string, rep *RunReport) error {
	if rep.Schema == "" {
		rep.Schema = ReportSchema
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal report: %w", err)
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("obs: write report: %w", err)
	}
	return nil
}
