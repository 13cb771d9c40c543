package serve

import (
	"time"

	"repro/internal/core"
	obsmetrics "repro/internal/obs/metrics"
)

// Metric label enums. Every label value a serve-layer vec can emit is listed
// here and pre-seeded at registration, so the series set a daemon exposes is
// fixed at startup — two fresh daemons scrape identically, and dashboards
// never miss a series that simply hasn't fired yet.
var (
	// jobStateLabels are the dpplaced_jobs_total transition labels: the five
	// lifecycle states plus "requeued", which counts crash/drain recoveries
	// (a transition back into queued, worth its own series).
	jobStateLabels = []string{"queued", "running", "done", "failed", "canceled", "requeued"}
	// rejectReasonLabels are the admission-control bounce reasons.
	rejectReasonLabels = []string{"draining", "queue_full", "too_large", "malformed"}
	// retryClassLabels are the retryable slices of the pipeline taxonomy.
	retryClassLabels = []string{"diverged", "degenerate-groups"}
	// healthKindLabels are the solver health-guard event kinds.
	healthKindLabels = []string{"rollbacks", "baseline_reruns"}
	// stageLabels are the pipeline stages with a wall-time series: the whole
	// core.PlaceCtx call, its four stages, and the evaluation.
	stageLabels = []string{"place", "extract", "global", "legalize", "detail", "metrics"}
)

// Histogram bucket layouts, chosen once so every daemon instance exports the
// same boundaries. Units are seconds throughout.
var (
	// jobDurationBuckets span interactive smoke jobs (~ms) to capped
	// production solves (~10 min).
	jobDurationBuckets = []float64{0.01, 0.05, 0.25, 1, 5, 30, 120, 600}
	// fsyncBuckets resolve the journal's fsync cost: healthy SSDs sit in the
	// sub-millisecond buckets, a saturated disk shows up in the tail.
	fsyncBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5}
	// leaseWaitBuckets measure how long dispatch blocked on the worker
	// budget — the queueing-delay signal for capacity planning.
	leaseWaitBuckets = []float64{0.001, 0.01, 0.1, 1, 10, 60}
	// stageBuckets time individual pipeline stages.
	stageBuckets = []float64{0.005, 0.025, 0.1, 0.5, 2, 10, 60}
)

// serverMetrics bundles every instrument the daemon exports. It is always
// constructed — with a nil registry every instrument is nil and every method
// on it is an inert pointer check, so instrumented code paths never branch on
// "is metrics enabled".
//
// Naming scheme: dpplaced_* for service-level series (scheduler, journal,
// SSE, worker budget), dpplace_* for solver-pipeline series that describe
// placement work itself regardless of how it was invoked.
type serverMetrics struct {
	jobsTotal        *obsmetrics.CounterVec
	queueDepth       *obsmetrics.Gauge
	jobsRunning      *obsmetrics.Gauge
	admissionRejects *obsmetrics.CounterVec
	retries          *obsmetrics.CounterVec
	jobDuration      *obsmetrics.Histogram
	journalAppends   *obsmetrics.Counter
	journalFsync     *obsmetrics.Histogram
	sseSubscribers   *obsmetrics.Gauge
	sseDropped       *obsmetrics.Counter
	sseHeartbeats    *obsmetrics.Counter
	budgetWorkers    *obsmetrics.Gauge
	budgetInUse      *obsmetrics.Gauge
	budgetHighWater  *obsmetrics.Gauge
	leaseWait        *obsmetrics.Histogram
	stageSeconds     *obsmetrics.HistogramVec
	degradations     *obsmetrics.Counter
	healthEvents     *obsmetrics.CounterVec
}

// newServerMetrics registers the daemon's metric families on reg and
// pre-seeds every enum-labeled child. A nil reg yields a fully inert bundle.
func newServerMetrics(reg *obsmetrics.Registry) *serverMetrics {
	m := &serverMetrics{
		jobsTotal: reg.CounterVec("dpplaced_jobs_total",
			"Job state transitions by resulting state.", "state"),
		queueDepth: reg.Gauge("dpplaced_queue_depth",
			"Jobs currently queued awaiting workers."),
		jobsRunning: reg.Gauge("dpplaced_jobs_running",
			"Jobs currently executing an attempt."),
		admissionRejects: reg.CounterVec("dpplaced_admission_rejects_total",
			"Submissions bounced by admission control, by reason.", "reason"),
		retries: reg.CounterVec("dpplaced_retries_total",
			"Retried attempts by failure taxonomy class.", "class"),
		jobDuration: reg.Histogram("dpplaced_job_duration_seconds",
			"End-to-end job latency from admission to terminal state.",
			jobDurationBuckets),
		journalAppends: reg.Counter("dpplaced_journal_appends_total",
			"Records appended to the write-ahead journal."),
		journalFsync: reg.Histogram("dpplaced_journal_fsync_seconds",
			"Fsync latency of journal appends.", fsyncBuckets),
		sseSubscribers: reg.Gauge("dpplaced_sse_subscribers",
			"Live SSE event-stream subscribers."),
		sseDropped: reg.Counter("dpplaced_sse_dropped_lines_total",
			"Telemetry lines dropped on slow SSE subscribers."),
		sseHeartbeats: reg.Counter("dpplaced_sse_heartbeats_total",
			"Heartbeat events emitted on SSE streams."),
		budgetWorkers: reg.Gauge("dpplaced_par_budget_workers",
			"Total size of the shared worker budget."),
		budgetInUse: reg.Gauge("dpplaced_par_budget_in_use",
			"Workers currently granted to running jobs."),
		budgetHighWater: reg.Gauge("dpplaced_par_budget_high_water",
			"Largest worker occupancy ever observed."),
		leaseWait: reg.Histogram("dpplaced_par_lease_wait_seconds",
			"Time dispatch spent blocked waiting for a worker grant.",
			leaseWaitBuckets),
		stageSeconds: reg.HistogramVec("dpplace_stage_seconds",
			"Wall time of pipeline stages across all jobs.", "stage",
			stageBuckets),
		degradations: reg.Counter("dpplace_degradations_total",
			"Graceful degradations (groups dropped to fallback placement)."),
		healthEvents: reg.CounterVec("dpplace_health_events_total",
			"Solver health-guard events by kind.", "kind"),
	}
	for _, v := range jobStateLabels {
		m.jobsTotal.With(v)
	}
	for _, v := range rejectReasonLabels {
		m.admissionRejects.With(v)
	}
	for _, v := range retryClassLabels {
		m.retries.With(v)
	}
	for _, v := range healthKindLabels {
		m.healthEvents.With(v)
	}
	for _, v := range stageLabels {
		m.stageSeconds.With(v)
	}
	return m
}

// jobState counts one lifecycle transition into state.
func (m *serverMetrics) jobState(state string) {
	m.jobsTotal.With(state).Inc()
}

// observeResult records one attempt's pipeline series from its result: the
// wall time of each core stage that ran (a stage that did not run has a zero
// time), the degradations, and the health events of the solve whose
// placement the attempt returns. A "global"-stage degradation marks the
// baseline rerun after a diverged structure-aware solve.
func (m *serverMetrics) observeResult(res *core.Result) {
	for _, st := range []struct {
		name string
		d    time.Duration
	}{
		{"extract", res.Times.Extract},
		{"global", res.Times.Global},
		{"legalize", res.Times.Legalize},
		{"detail", res.Times.Detail},
	} {
		if st.d > 0 {
			m.stageSeconds.With(st.name).Observe(st.d.Seconds())
		}
	}
	m.degradations.Add(int64(len(res.Degradations)))
	m.healthEvents.With("rollbacks").Add(int64(res.GlobalResult.Diagnostics.Rollbacks))
	for _, d := range res.Degradations {
		if d.Stage == "global" {
			m.healthEvents.With("baseline_reruns").Inc()
		}
	}
}
