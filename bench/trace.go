package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
)

// span is one traced call into a layer, as written to the JSONL trace.
// Times are seconds since the tracer started; Parent 0 marks a unit's root.
// Spans of one unit of work (a suite pass, a placement job, a daemon job)
// share Run.
type span struct {
	Run    string  `json:"run"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths pay one nil check per call. It is safe for
// concurrent use: the daemon workload records from two goroutines.
type tracer struct {
	clock obs.Stopwatch
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{clock: obs.StartStopwatch()}
}

// now returns seconds since the tracer started (0 on a nil tracer).
func (t *tracer) now() float64 {
	if t == nil {
		return 0
	}
	return t.clock.Seconds()
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(run, name string, parent int) int {
	if t == nil {
		return 0
	}
	return t.add(run, name, parent, t.now(), -1)
}

// end closes the span with the given id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval the caller measured, e.g. from polled
// daemon state, and returns its id.
func (t *tracer) add(run, name string, parent int, start, end float64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Run: run, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// write saves the spans as JSONL, one span per line in id order.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

// selfTimes returns, per run and span name, the summed self time: each
// span's duration minus the part of it its child spans cover. Children of
// one parent never overlap here (every layer call is synchronous), so the
// covered part is the sum of the children's durations.
func (t *tracer) selfTimes() map[string]map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]map[string]float64{}
	for _, s := range t.spans {
		byName := out[s.Run]
		if byName == nil {
			byName = map[string]float64{}
			out[s.Run] = byName
		}
		byName[s.Name] += s.End - s.Start - child[s.ID]
	}
	return out
}

// medianSelf returns the median, over the runs whose id starts with prefix,
// of the named layer's self time per run; a run where the layer did not
// appear counts as zero.
func medianSelf(self map[string]map[string]float64, prefix, name string) float64 {
	runs := make([]string, 0, len(self))
	for r := range self {
		if strings.HasPrefix(r, prefix) {
			runs = append(runs, r)
		}
	}
	sort.Strings(runs)
	xs := make([]float64, 0, len(runs))
	for _, r := range runs {
		xs = append(xs, self[r][name])
	}
	return median(xs)
}
