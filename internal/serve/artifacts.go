package serve

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/bookshelf"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// writeSpecFile persists the submitted spec beside the job's artifacts, so a
// result directory is self-describing without the journal.
func writeSpecFile(path string, spec *JobSpec) error {
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: marshal spec: %w", err)
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("serve: write spec: %w", err)
	}
	return nil
}

// writeJobReport writes the dpplace-run-report/v1 document for one job
// attempt — the same schema dpplace -report writes, so downstream tooling
// (the smoke driver) reads daemon results unchanged. snapshot is the
// daemon's counter/gauge snapshot at report time (nil outside a metrics-
// enabled daemon); it lands in the additive metrics_snapshot section.
func writeJobReport(path, design string, mode core.Mode, res *core.Result, mrep *metrics.Report, runErr error, rec *obs.Recorder, snapshot map[string]float64) error {
	out := res.RunReport(design, mode, pipeline.Classify(runErr), rec)
	out.Metrics = mrep
	out.MetricsSnapshot = snapshot
	if err := core.WriteReportFile(path, out); err != nil {
		return fmt.Errorf("serve: job report: %w", err)
	}
	return nil
}

// writePlacementFile writes the legal placement in Bookshelf .pl format.
// When the writer refuses the design, no file is created.
func writePlacementFile(path string, d *bookshelf.Design, res *core.Result) error {
	if err := bookshelf.WritePlFile(path, d.Netlist, res.Placement); err != nil {
		return fmt.Errorf("serve: write placement: %w", err)
	}
	return nil
}
