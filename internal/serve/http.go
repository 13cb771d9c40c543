package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /jobs                submit a job spec   → 202 + job view
//	GET    /jobs                list jobs
//	GET    /jobs/{id}           one job's state
//	GET    /jobs/{id}/events    SSE: telemetry, state changes, heartbeats
//	GET    /jobs/{id}/report    the dpplace-run-report/v1 JSON artifact
//	GET    /jobs/{id}/placement the Bookshelf .pl artifact
//	DELETE /jobs/{id}           cancel
//	GET    /healthz             liveness (200 while the process serves)
//	GET    /readyz              readiness (503 once draining begins)
//	GET    /metrics             Prometheus text exposition
//	GET    /stats               scheduler snapshot
//
// Admission failures map to 400 (malformed spec), 429 (overloaded) and
// 503 (draining).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/report", s.handleArtifact("report.json", "application/json"))
	mux.HandleFunc("GET /jobs/{id}/placement", s.handleArtifact("out.pl", "text/plain; charset=utf-8"))
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", s.cfg.Metrics.Handler())
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

// apiError is the JSON error body of every non-2xx response.
type apiError struct {
	// Error is the human-readable failure description.
	Error string `json:"error"`
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError maps err to its HTTP status and writes the JSON error body.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, pipeline.ErrMalformedInput):
		status = http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrNoSuchJob):
		status = http.StatusNotFound
	}
	writeJSON(w, status, apiError{Error: err.Error()})
}

// maxBody caps a job submission's request body.
const maxBody = 64 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := DecodeSpec(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		s.metrics.admissionRejects.With("malformed").Inc()
		writeError(w, err)
		return
	}
	v, err := s.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+v.ID)
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	v, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	v, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleArtifact serves one file from the job's artifact directory.
func (s *Server) handleArtifact(name, contentType string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, err := s.Job(id); err != nil {
			writeError(w, err)
			return
		}
		b, err := os.ReadFile(filepath.Join(s.JobDir(id), name))
		if os.IsNotExist(err) {
			writeError(w, fmt.Errorf("%w: artifact %s not written yet", ErrNoSuchJob, name))
			return
		}
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", contentType)
		w.Write(b)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the load-balancer signal: 200 while the daemon admits
// work, 503 from the instant a drain begins — before in-flight jobs finish —
// so traffic shifts away while the drain completes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// watch subscribes to a job's telemetry and state transitions. The
// subscription is nil when the job already reached a terminal state without
// ever running (e.g. canceled while queued) — a nil *obs.Subscription is
// inert, so the caller streams state events only. Caller must Cancel the
// subscription.
func (s *Server) watch(id string) (v View, sub *obs.Subscription, stateCh <-chan struct{}, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return View{}, nil, nil, ErrNoSuchJob
	}
	if job.events == nil && !job.State.Terminal() {
		// First watcher of a not-yet-running job: create the broadcaster
		// early so no telemetry is missed when the attempt starts.
		job.events = s.newJobBroadcaster()
	}
	if job.events != nil {
		sub = job.events.Subscribe(256)
	}
	return job.view(), sub, job.stateCh, nil
}

// handleEvents streams a job over SSE: per-iteration solver telemetry from
// the recorder's JSONL trace feed ("telemetry" events), job state
// transitions ("state" events), and periodic "heartbeat" events proving
// liveness while the solver grinds between iterations. Heartbeats carry the
// subscriber's dropped-line count, so a slow client knows its view of the
// trace has holes. The stream ends with the terminal state event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	v, sub, stateCh, err := s.watch(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	defer sub.Cancel()
	if sub != nil {
		s.metrics.sseSubscribers.Add(1)
		defer s.metrics.sseSubscribers.Add(-1)
	}
	telemetry := sub.Lines()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	emit := func(event string, data any) {
		b, err := json.Marshal(data)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
		fl.Flush()
	}
	emitLine := func(line string) {
		fmt.Fprintf(w, "event: telemetry\ndata: %s\n\n", line)
		fl.Flush()
	}

	if v.State.Terminal() {
		// Telemetry is fully published before a job's state turns terminal,
		// so flushing it first keeps the terminal state the stream's last
		// event.
		drainTelemetry(telemetry, emitLine)
		emit("state", v)
		return
	}
	emit("state", v)

	hb := time.NewTicker(s.cfg.Heartbeat)
	defer hb.Stop()
	for {
		select {
		case line, open := <-telemetry:
			if !open {
				telemetry = nil
				continue
			}
			emitLine(line)
		case <-stateCh:
			// Re-arm on the fresh channel before emitting, so a transition
			// racing the emit is not lost.
			v2, next, err := s.watchState(v.ID)
			if err != nil {
				return
			}
			stateCh = next
			if v2.State.Terminal() {
				// Drain before the terminal emit: everything the attempt
				// traced is already buffered (telemetry writes complete
				// before the state transition), and the terminal state must
				// be the last event on the stream.
				drainTelemetry(telemetry, emitLine)
				emit("state", v2)
				return
			}
			emit("state", v2)
		case <-hb.C:
			emit("heartbeat", heartbeat{Job: v.ID, DroppedLines: sub.Drops()})
			s.metrics.sseHeartbeats.Inc()
		case <-r.Context().Done():
			return
		}
	}
}

// heartbeat is the SSE heartbeat payload: proof of liveness plus this
// subscriber's cumulative dropped-line count, so a client that fell behind
// the drop-oldest buffer can tell its trace view is incomplete.
type heartbeat struct {
	// Job is the watched job id.
	Job string `json:"job"`
	// DroppedLines counts telemetry lines this subscriber lost so far.
	DroppedLines int64 `json:"dropped_lines"`
}

// watchState re-fetches a job's view and current state channel (no new
// telemetry subscription).
func (s *Server) watchState(id string) (View, <-chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return View{}, nil, ErrNoSuchJob
	}
	return job.view(), job.stateCh, nil
}

// drainTelemetry forwards whatever telemetry is already buffered without
// blocking, so the tail of the trace reaches the client before the stream
// closes.
func drainTelemetry(telemetry <-chan string, emitLine func(string)) {
	for {
		select {
		case line, open := <-telemetry:
			if !open {
				return
			}
			emitLine(line)
		default:
			return
		}
	}
}
