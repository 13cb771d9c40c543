package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func specJSON(t *testing.T, spec *JobSpec) string {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func decodeView(t *testing.T, resp *http.Response) View {
	t.Helper()
	defer resp.Body.Close()
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode view: %v", err)
	}
	return v
}

func TestHTTPEndToEnd(t *testing.T) {
	s := newServer(t, Config{Workers: 2})
	defer shutdown(t, s)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/jobs", specJSON(t, fastSpec("http-e2e", 21)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/jobs/") {
		t.Fatalf("Location = %q", loc)
	}
	v := decodeView(t, resp)
	if v.ID == "" || v.State != StateQueued {
		t.Fatalf("submitted view = %+v", v)
	}

	waitTerminal(t, s, v.ID, 60*time.Second)

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	resp2, body := get("/jobs/" + v.ID)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET job: %d %s", resp2.StatusCode, body)
	}
	var got View
	json.Unmarshal(body, &got)
	if got.State != StateDone || got.Exit != "ok" {
		t.Fatalf("job view = %+v", got)
	}

	resp3, body := get("/jobs/" + v.ID + "/report")
	if resp3.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("dpplace-run-report/v1")) {
		t.Fatalf("GET report: %d %.120s", resp3.StatusCode, body)
	}
	resp4, body := get("/jobs/" + v.ID + "/placement")
	if resp4.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("UCLA pl")) {
		t.Fatalf("GET placement: %d %.120s", resp4.StatusCode, body)
	}
	resp5, body := get("/jobs")
	if resp5.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(v.ID)) {
		t.Fatalf("GET jobs: %d %.120s", resp5.StatusCode, body)
	}
	resp6, body := get("/stats")
	if resp6.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("workers_total")) {
		t.Fatalf("GET stats: %d %.120s", resp6.StatusCode, body)
	}
	resp7, _ := get("/healthz")
	if resp7.StatusCode != http.StatusOK {
		t.Fatalf("GET healthz: %d", resp7.StatusCode)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	s := newServer(t, Config{Workers: 1, QueueDepth: 1})
	defer shutdown(t, s)
	// Dispatcher intentionally not started: submissions stay queued.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		do   func() *http.Response
		want int
	}{
		{"malformed JSON", func() *http.Response {
			return postJSON(t, ts.URL+"/jobs", "{nope")
		}, http.StatusBadRequest},
		{"unknown field", func() *http.Response {
			return postJSON(t, ts.URL+"/jobs", `{"gen":{},"bogus":1}`)
		}, http.StatusBadRequest},
		{"missing design", func() *http.Response {
			return postJSON(t, ts.URL+"/jobs", `{"name":"x"}`)
		}, http.StatusBadRequest},
		{"unknown job", func() *http.Response {
			resp, err := http.Get(ts.URL + "/jobs/j999999")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusNotFound},
		{"first admit ok", func() *http.Response {
			return postJSON(t, ts.URL+"/jobs", specJSON(t, fastSpec("q1", 1)))
		}, http.StatusAccepted},
		{"artifact not written yet", func() *http.Response {
			resp, err := http.Get(ts.URL + "/jobs/j000000/report")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusNotFound},
		{"queue full", func() *http.Response {
			return postJSON(t, ts.URL+"/jobs", specJSON(t, fastSpec("q2", 2)))
		}, http.StatusTooManyRequests},
	}
	for _, tc := range cases {
		resp := tc.do()
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	event string
	data  string
}

// readSSE parses events off the stream until pred says stop or the stream
// ends.
func readSSE(t *testing.T, r *bufio.Reader, stop func(sseEvent) bool) []sseEvent {
	t.Helper()
	var events []sseEvent
	cur := sseEvent{}
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return events
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
				if stop(cur) {
					return events
				}
			}
			cur = sseEvent{}
		}
	}
}

// TestHTTPEventsSSE watches a job over SSE through its whole life: heartbeat
// events while it waits in the queue, telemetry lines while the solver runs,
// state transitions, and stream termination at the terminal state.
func TestHTTPEventsSSE(t *testing.T) {
	s := newServer(t, Config{Workers: 1, Heartbeat: 5 * time.Millisecond})
	defer shutdown(t, s)
	// Not started yet: the job waits in the queue while we connect, which
	// makes at least one heartbeat deterministic.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, err := s.Submit(fastSpec("sse", 33))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%s/events", ts.URL, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)

	// Queued state first, then heartbeats while nothing runs.
	pre := readSSE(t, br, func(e sseEvent) bool { return e.event == "heartbeat" })
	if len(pre) == 0 || pre[0].event != "state" || !strings.Contains(pre[0].data, `"queued"`) {
		t.Fatalf("stream preamble = %+v, want queued state first", pre)
	}

	s.Start()
	rest := readSSE(t, br, func(e sseEvent) bool {
		return e.event == "state" && (strings.Contains(e.data, `"done"`) ||
			strings.Contains(e.data, `"failed"`))
	})
	if len(rest) == 0 {
		t.Fatal("stream ended without a terminal state event")
	}
	last := rest[len(rest)-1]
	if !strings.Contains(last.data, `"done"`) {
		t.Fatalf("terminal event = %+v, want done", last)
	}
	telemetry := 0
	for _, e := range rest {
		if e.event == "telemetry" {
			telemetry++
			if !strings.HasPrefix(e.data, "{") {
				t.Fatalf("telemetry line is not JSONL: %q", e.data)
			}
		}
	}
	if telemetry == 0 {
		t.Fatal("no solver telemetry reached the SSE stream")
	}
	// The stream closes after the terminal event.
	if tail := readSSE(t, br, func(sseEvent) bool { return false }); len(tail) != 0 {
		t.Fatalf("stream kept talking after the terminal state: %+v", tail)
	}
}
