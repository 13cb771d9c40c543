package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	obsmetrics "repro/internal/obs/metrics"
)

// scrape fetches /metrics and returns the exposition text.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics Content-Type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// waitIdle polls until no job is running and the worker budget is fully
// released, so subsequent scrapes see a quiescent registry.
func waitIdle(t *testing.T, s *Server, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := s.Stats()
		if st.Running == 0 && st.WorkersInUse == 0 && st.Queued == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never went idle: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMetricsEndToEnd runs one job to completion on a metrics-enabled server
// and checks the /metrics exposition carries every core series, that two
// idle scrapes are byte-identical, and that the job report embeds the
// metrics snapshot.
func TestMetricsEndToEnd(t *testing.T) {
	reg := obsmetrics.NewRegistry()
	s := newServer(t, Config{Workers: 2, Metrics: reg})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Start()

	v, err := s.Submit(fastSpec("metrics-e2e", 17))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitTerminal(t, s, v.ID, 60*time.Second)
	if got.State != StateDone {
		t.Fatalf("job ended %s (%s), want done", got.State, got.Error)
	}
	waitIdle(t, s, 10*time.Second)

	text := scrape(t, ts.URL)
	for _, want := range []string{
		`dpplaced_jobs_total{state="queued"} 1`,
		`dpplaced_jobs_total{state="running"} 1`,
		`dpplaced_jobs_total{state="done"} 1`,
		`dpplaced_jobs_total{state="failed"} 0`,
		`dpplaced_queue_depth 0`,
		`dpplaced_jobs_running 0`,
		`dpplaced_job_duration_seconds_count 1`,
		`dpplaced_admission_rejects_total{reason="queue_full"} 0`,
		`dpplaced_journal_appends_total`,
		`dpplaced_journal_fsync_seconds_bucket`,
		`dpplaced_par_budget_workers 2`,
		`dpplaced_par_lease_wait_seconds_count`,
		`dpplace_stage_seconds_bucket{stage="global",le=`,
		`dpplace_degradations_total`,
		`dpplace_health_events_total{kind="rollbacks"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The span hook bridges each stage of the one job into the histograms.
	for _, stage := range stageLabels {
		if want := fmt.Sprintf(`dpplace_stage_seconds_count{stage=%q} 1`, stage); !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// A completed job journals submit/start/done at minimum; the appends
	// counter and fsync histogram must agree.
	if !strings.Contains(text, "dpplaced_journal_fsync_seconds_count 3") &&
		!strings.Contains(text, "dpplaced_journal_fsync_seconds_count 4") {
		t.Errorf("fsync count not in the expected 3-4 range:\n%s",
			grepLine(text, "dpplaced_journal_fsync_seconds_count"))
	}

	// Idle server: consecutive scrapes are byte-identical.
	if again := scrape(t, ts.URL); again != text {
		t.Error("two idle scrapes are not byte-identical")
	}

	// The run report embeds the snapshot, counters and gauges only.
	repB, err := os.ReadFile(filepath.Join(s.JobDir(v.ID), "report.json"))
	if err != nil {
		t.Fatalf("report artifact: %v", err)
	}
	var rep struct {
		MetricsSnapshot map[string]float64 `json:"metrics_snapshot"`
	}
	if err := json.Unmarshal(repB, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.MetricsSnapshot == nil {
		t.Fatal("report has no metrics_snapshot section")
	}
	if rep.MetricsSnapshot[`dpplaced_jobs_total{state="running"}`] != 1 {
		t.Errorf("snapshot running transitions = %v, want 1",
			rep.MetricsSnapshot[`dpplaced_jobs_total{state="running"}`])
	}
	if _, ok := rep.MetricsSnapshot["dpplaced_job_duration_seconds"]; ok {
		t.Error("snapshot must not contain histogram families")
	}
}

// TestPipelineSeriesFromResults checks the values the daemon reads from each
// attempt's typed result and from its own grant and release: after one
// structure-aware job every stage counts once, the budget gauges read the
// released budget and the job's grant, and dispatch timed one lease; a
// baseline job then times every stage but extraction.
func TestPipelineSeriesFromResults(t *testing.T) {
	reg := obsmetrics.NewRegistry()
	s := newServer(t, Config{Workers: 2, Metrics: reg})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Start()

	run := func(spec *JobSpec) View {
		t.Helper()
		v, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		got := waitTerminal(t, s, v.ID, 60*time.Second)
		if got.State != StateDone {
			t.Fatalf("job ended %s (%s), want done", got.State, got.Error)
		}
		waitIdle(t, s, 10*time.Second)
		return got
	}
	expect := func(text string, lines ...string) {
		t.Helper()
		for _, want := range lines {
			if !strings.Contains(text, want+"\n") {
				t.Errorf("exposition has %q, want %q", grepLine(text, strings.Fields(want)[0]), want)
			}
		}
	}

	job := run(fastSpec("structure-aware", 23))
	text := scrape(t, ts.URL)
	for _, stage := range stageLabels {
		expect(text, fmt.Sprintf(`dpplace_stage_seconds_count{stage=%q} 1`, stage))
	}
	expect(text,
		"dpplaced_par_budget_in_use 0",
		fmt.Sprintf("dpplaced_par_budget_high_water %d", job.Workers),
		"dpplaced_par_lease_wait_seconds_count 1",
	)

	spec := fastSpec("baseline", 29)
	spec.Options.Mode = "baseline"
	run(spec)
	text = scrape(t, ts.URL)
	for _, stage := range stageLabels {
		n := 2
		if stage == "extract" {
			n = 1
		}
		expect(text, fmt.Sprintf(`dpplace_stage_seconds_count{stage=%q} %d`, stage, n))
	}
}

// TestDegradationsReachRegistry checks the recorder-to-registry fold: a job
// whose groups all degrade counts exactly the degradations its report lists.
func TestDegradationsReachRegistry(t *testing.T) {
	faultinject.Enable(1, faultinject.Spec{Site: faultinject.SiteDegenerateGroups})
	defer faultinject.Disable()
	reg := obsmetrics.NewRegistry()
	s := newServer(t, Config{Workers: 1, Metrics: reg})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Start()

	v, err := s.Submit(fastSpec("degraded", 19))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := waitTerminal(t, s, v.ID, 60*time.Second); got.State != StateDone {
		t.Fatalf("job ended %s (%s), want done", got.State, got.Error)
	}
	waitIdle(t, s, 10*time.Second)

	repB, err := os.ReadFile(filepath.Join(s.JobDir(v.ID), "report.json"))
	if err != nil {
		t.Fatalf("report artifact: %v", err)
	}
	var rep struct {
		Degradations []json.RawMessage `json:"degradations"`
	}
	if err := json.Unmarshal(repB, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Degradations) == 0 {
		t.Fatal("the fault-injected job reports no degradation")
	}
	want := fmt.Sprintf("dpplace_degradations_total %d\n", len(rep.Degradations))
	if text := scrape(t, ts.URL); !strings.Contains(text, want) {
		t.Errorf("exposition has %q, want %q", grepLine(text, "dpplace_degradations_total"), want)
	}
}

// grepLine returns the lines of text containing substr (for error messages).
func grepLine(text, substr string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestAdmissionRejectMetrics pins the reject-reason counters.
func TestAdmissionRejectMetrics(t *testing.T) {
	reg := obsmetrics.NewRegistry()
	// QueueDepth 1 and no Start: the second submit bounces queue_full.
	s := newServer(t, Config{Workers: 1, QueueDepth: 1, Metrics: reg})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := s.Submit(fastSpec("fill", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(fastSpec("bounced", 2)); err == nil {
		t.Fatal("second submit should bounce on queue depth")
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed submit: status %d, want 400", resp.StatusCode)
	}

	text := scrape(t, ts.URL)
	for _, want := range []string{
		`dpplaced_admission_rejects_total{reason="queue_full"} 1`,
		`dpplaced_admission_rejects_total{reason="malformed"} 1`,
		`dpplaced_admission_rejects_total{reason="too_large"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want,
				grepLine(text, "admission_rejects"))
		}
	}
}

// TestReadyzFlipsDuringDrain is the health-probe contract: /readyz answers
// 200 while admitting, flips to 503 the moment a drain begins — while the
// in-flight job is still running — and /metrics keeps serving through the
// drain window.
func TestReadyzFlipsDuringDrain(t *testing.T) {
	reg := obsmetrics.NewRegistry()
	s := newServer(t, Config{Workers: 1, Metrics: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Start()

	statusOf := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := statusOf("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", got)
	}
	if got := statusOf("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", got)
	}

	v, err := s.Submit(slowSpec("grinder"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID, 60*time.Second, func(jv View) bool { return jv.State == StateRunning })

	drainCtx, forceDrain := context.WithCancel(context.Background())
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		s.Drain(drainCtx)
	}()

	// The probe must flip before the running job finishes: poll /readyz for
	// 503 while the grinder is still grinding.
	deadline := time.Now().Add(10 * time.Second)
	for statusOf("/readyz") != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped to 503 during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if jv, err := s.Job(v.ID); err != nil || jv.State != StateRunning {
		t.Fatalf("job state during 503 window = %v (%v), want still running", jv.State, err)
	}
	// Liveness and metrics keep answering during the drain.
	if got := statusOf("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200", got)
	}
	if text := scrape(t, ts.URL); !strings.Contains(text, `dpplaced_jobs_total{state="running"} 1`) {
		t.Error("/metrics during drain missing the running-job series")
	}

	forceDrain() // expire the drain deadline: the grinder checkpoints
	select {
	case <-drained:
	case <-time.After(60 * time.Second):
		t.Fatal("drain never completed")
	}
	if got := statusOf("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain = %d, want 503", got)
	}
}

// TestHeartbeatCarriesDroppedLines pins the SSE honesty field: every
// heartbeat reports the subscriber's cumulative dropped-line count.
func TestHeartbeatCarriesDroppedLines(t *testing.T) {
	reg := obsmetrics.NewRegistry()
	s := newServer(t, Config{Workers: 1, Heartbeat: 5 * time.Millisecond, Metrics: reg})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Not started: the queued job heartbeats while nothing runs.
	v, err := s.Submit(fastSpec("hb", 5))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%s/events", ts.URL, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	br := bufio.NewReader(resp.Body)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat arrived")
		}
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE read: %v", err)
		}
		if !strings.HasPrefix(line, "event: heartbeat") {
			continue
		}
		data, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE read: %v", err)
		}
		var hb struct {
			Job          string `json:"job"`
			DroppedLines *int64 `json:"dropped_lines"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(data), "data: ")), &hb); err != nil {
			t.Fatalf("heartbeat payload: %v (%q)", err, data)
		}
		if hb.Job != v.ID {
			t.Fatalf("heartbeat job = %q, want %q", hb.Job, v.ID)
		}
		if hb.DroppedLines == nil {
			t.Fatal("heartbeat has no dropped_lines field")
		}
		break
	}
}
