// Package obs is the flight recorder of the placement flow: hierarchical
// wall-time spans, per-stage counters, per-iteration solver telemetry and
// leveled logging, emitted as a JSONL trace and collected for the run
// report that package core assembles. It has no dependencies outside the
// standard library and no dependencies on the rest of this repository, so
// every package of the flow can record into it.
//
// A Recorder is concurrency-safe and nil-safe: a nil *Recorder (and a nil
// *Span) is a valid, permanently disabled recorder, so call sites never need
// a nil check. When recording is off every event method is a single atomic
// load followed by a return — no locks, no allocations — so instrumentation
// can stay in hot solver loops permanently without a measurable cost and
// without perturbing the iterate sequence. Enabling the recorder is equally
// passive: it only observes, so a traced run produces bit-identical
// placements to an untraced one.
//
// Trace schema (one JSON object per line, field "ev" discriminates):
//
//	span      — span start: id, parent (0 = root), name
//	span_end  — span end: id, name, dur (seconds), counters
//	iter      — one accepted solver iterate: stage, outer, iter, f, gnorm
//	recovery  — a solver health event: stage, outer, kind, iter, f, step
//	outer     — one λ-schedule point: stage + TrajectoryPoint fields
//	degrade   — a graceful-degradation event: stage, group, reason
//	event     — a generic marker: stage, name
//	log       — a log line that cleared the level filter: level, stage, msg
//
// Every event carries "t", seconds since the recorder was created.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder collects spans, counters, telemetry and logs for one run.
// The zero value is unusable; call New.
type Recorder struct {
	on     atomic.Bool // recording (trace and/or collection) active
	hasLog atomic.Bool // a log sink is attached
	logMin atomic.Int32
	nextID atomic.Int64
	start  time.Time

	mu       sync.Mutex
	w        io.Writer // JSONL sink; nil = collect only
	counters map[string]int64
	traj     []TrajectoryPoint

	logMu sync.Mutex
	logW  io.Writer
}

// New returns a disabled recorder. Attach sinks with SetTrace / SetLog, or
// call Collect to aggregate counters and trajectory without a trace file.
func New() *Recorder {
	return &Recorder{start: time.Now(), counters: make(map[string]int64)}
}

// Active reports whether recording is on. Nil-safe; instrumentation sites
// use it to gate work (HPWL snapshots, closures) that only feeds the trace.
func (r *Recorder) Active() bool { return r != nil && r.on.Load() }

// SetTrace attaches the JSONL sink and turns recording on. The recorder
// never closes w; the caller owns its lifetime (and any buffering).
func (r *Recorder) SetTrace(w io.Writer) {
	r.mu.Lock()
	r.w = w
	r.mu.Unlock()
	r.on.Store(true)
}

// Collect turns recording on without a trace sink: counters, spans and the
// trajectory aggregate in memory for the run report, and events are dropped.
func (r *Recorder) Collect() { r.on.Store(true) }

// now returns seconds since the recorder was created.
func (r *Recorder) now() float64 { return time.Since(r.start).Seconds() }

// emit writes one JSONL line. Marshal failures (non-finite floats that
// slipped past sanitization) drop the event rather than corrupt the trace.
func (r *Recorder) emit(v any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.w == nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	b = append(b, '\n')
	r.w.Write(b)
}

// jf maps a float to a JSON-safe pointer: NaN/Inf (which encoding/json
// rejects) become null instead of poisoning the whole event.
func jf(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// Add bumps a named counter. Keys are slash-scoped by convention
// ("global/cg-restart", "detail/moves"); Span.Add prefixes automatically.
func (r *Recorder) Add(key string, delta int64) {
	if !r.Active() || delta == 0 {
		return
	}
	r.mu.Lock()
	r.counters[key] += delta
	r.mu.Unlock()
}

// Counter returns one counter's current value.
func (r *Recorder) Counter(key string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[key]
}

// Counters returns a snapshot of all counters.
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	//placelint:ignore maporder copying into a map; insertion order cannot be observed
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// TrajectoryPoint is one λ-schedule (outer-iteration) snapshot of the global
// placer: the standard HPWL/overflow-vs-iteration curve placement papers
// report, plus the schedule state that produced it.
type TrajectoryPoint struct {
	Outer     int     `json:"outer"`
	Inner     int     `json:"inner"` // accepted CG iterations in this stage
	HPWL      float64 `json:"hpwl"`
	Overflow  float64 `json:"overflow"`
	AlignRMS  float64 `json:"align_rms"`
	Objective float64 `json:"objective"`
	Lambda    float64 `json:"lambda"`
	Alpha     float64 `json:"alpha"`
	Gamma     float64 `json:"gamma"`
}

// Trajectory returns a copy of the collected λ-schedule points.
func (r *Recorder) Trajectory() []TrajectoryPoint {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]TrajectoryPoint(nil), r.traj...)
}

type iterEvent struct {
	T     float64  `json:"t"`
	Ev    string   `json:"ev"`
	Stage string   `json:"stage"`
	Outer int      `json:"outer"`
	Iter  int      `json:"iter"`
	F     *float64 `json:"f"`
	GNorm *float64 `json:"gnorm"`
}

// SolverIter records one accepted inner-solver iterate. Hot path: when
// recording is off this is one atomic load and a return.
func (r *Recorder) SolverIter(stage string, outer, iter int, f, gnorm float64) {
	if !r.Active() {
		return
	}
	r.emit(iterEvent{T: r.now(), Ev: "iter", Stage: stage, Outer: outer,
		Iter: iter, F: jf(f), GNorm: jf(gnorm)})
}

type recoveryEvent struct {
	T     float64  `json:"t"`
	Ev    string   `json:"ev"`
	Stage string   `json:"stage"`
	Outer int      `json:"outer"`
	Kind  string   `json:"kind"`
	Iter  int      `json:"iter"`
	F     *float64 `json:"f"`
	Step  *float64 `json:"step"`
}

// SolverEvent records a solver health event — a rollback, line-search reset,
// CG restart, re-anneal or divergence — and bumps the matching
// "stage/kind" counter, so diverged-then-recovered solves are visible
// instead of appearing as a gap in iteration numbers.
func (r *Recorder) SolverEvent(stage string, outer int, kind string, iter int, f, step float64) {
	if !r.Active() {
		return
	}
	r.Add(stage+"/"+kind, 1)
	r.emit(recoveryEvent{T: r.now(), Ev: "recovery", Stage: stage, Outer: outer,
		Kind: kind, Iter: iter, F: jf(f), Step: jf(step)})
}

type outerEvent struct {
	T     float64 `json:"t"`
	Ev    string  `json:"ev"`
	Stage string  `json:"stage"`
	TrajectoryPoint
}

// OuterIter records one λ-schedule point, both into the trace and into the
// in-memory trajectory for the run report.
func (r *Recorder) OuterIter(stage string, p TrajectoryPoint) {
	if !r.Active() {
		return
	}
	r.mu.Lock()
	r.traj = append(r.traj, p)
	r.mu.Unlock()
	r.emit(outerEvent{T: r.now(), Ev: "outer", Stage: stage, TrajectoryPoint: p})
}

type degradeEvent struct {
	T      float64 `json:"t"`
	Ev     string  `json:"ev"`
	Stage  string  `json:"stage"`
	Group  int     `json:"group"`
	Reason string  `json:"reason"`
}

// Degrade records one graceful-degradation event (group = -1 for whole-flow
// events) and bumps the "degradations" counter.
func (r *Recorder) Degrade(stage string, group int, reason string) {
	if !r.Active() {
		return
	}
	r.Add("degradations", 1)
	r.emit(degradeEvent{T: r.now(), Ev: "degrade", Stage: stage, Group: group, Reason: reason})
}

type markerEvent struct {
	T     float64 `json:"t"`
	Ev    string  `json:"ev"`
	Stage string  `json:"stage"`
	Name  string  `json:"name"`
}

// Event records a generic named marker (stage transitions, fault
// injections, deadline expiries).
func (r *Recorder) Event(stage, name string) {
	if !r.Active() {
		return
	}
	r.emit(markerEvent{T: r.now(), Ev: "event", Stage: stage, Name: name})
}

// Span is one timed region of the run. Spans form a hierarchy via Child and
// carry their own counters, rolled up into the recorder's totals under
// "name/key". A nil *Span is valid and inert.
type Span struct {
	r      *Recorder
	id     int64
	parent int64
	name   string
	start  time.Time

	mu       sync.Mutex
	counters map[string]int64
	ended    bool
}

type spanStartEvent struct {
	T      float64 `json:"t"`
	Ev     string  `json:"ev"`
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
}

type spanEndEvent struct {
	T        float64          `json:"t"`
	Ev       string           `json:"ev"`
	ID       int64            `json:"id"`
	Name     string           `json:"name"`
	Dur      float64          `json:"dur"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Span opens a root span. Returns nil (inert) when recording is off.
func (r *Recorder) Span(name string) *Span {
	if !r.Active() {
		return nil
	}
	return r.newSpan(name, 0)
}

func (r *Recorder) newSpan(name string, parent int64) *Span {
	s := &Span{r: r, id: r.nextID.Add(1), parent: parent, name: name, start: time.Now()}
	r.emit(spanStartEvent{T: r.now(), Ev: "span", ID: s.id, Parent: parent, Name: name})
	return s
}

// Child opens a nested span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.r.newSpan(name, s.id)
}

// Add bumps a span counter and the recorder total "span-name/key".
func (s *Span) Add(key string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	s.counters[key] += delta
	s.mu.Unlock()
	s.r.Add(s.name+"/"+key, delta)
}

// End closes the span, emitting its duration and counters. Ending twice is
// a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	var counters map[string]int64
	if len(s.counters) > 0 {
		counters = make(map[string]int64, len(s.counters))
		//placelint:ignore maporder copying into a map; insertion order cannot be observed
		for k, v := range s.counters {
			counters[k] = v
		}
	}
	s.mu.Unlock()
	s.r.emit(spanEndEvent{T: s.r.now(), Ev: "span_end", ID: s.id, Name: s.name,
		Dur: time.Since(s.start).Seconds(), Counters: counters})
}
