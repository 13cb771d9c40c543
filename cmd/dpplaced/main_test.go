package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// buildOnce builds the dpplaced binary one time for the whole test file.
var buildOnce sync.Once
var builtBin string
var buildErr error

func daemonBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "dpplaced-bin")
		if err != nil {
			buildErr = err
			return
		}
		builtBin = filepath.Join(dir, "dpplaced")
		cmd := exec.Command("go", "build", "-o", builtBin, ".")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return builtBin
}

// daemon wraps one running dpplaced subprocess.
type daemon struct {
	cmd  *exec.Cmd
	data string
	addr string
	done chan error
}

// startDaemon launches dpplaced on an ephemeral port and waits for the addr
// file to appear.
func startDaemon(t *testing.T, data string, extra ...string) *daemon {
	t.Helper()
	args := append([]string{
		"-addr", "127.0.0.1:0", "-data", data, "-workers", "1", "-quiet",
	}, extra...)
	cmd := exec.Command(daemonBin(t), args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, data: data, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()

	addrPath := filepath.Join(data, "dpplaced.addr")
	deadline := time.Now().Add(30 * time.Second)
	for {
		b, err := os.ReadFile(addrPath)
		if err == nil && strings.TrimSpace(string(b)) != "" {
			d.addr = strings.TrimSpace(string(b))
			return d
		}
		select {
		case err := <-d.done:
			t.Fatalf("daemon exited during startup: %v\n%s", err, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never wrote %s\n%s", addrPath, stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// exitCode waits for the subprocess to exit and returns its code.
func (d *daemon) exitCode(t *testing.T, timeout time.Duration) int {
	t.Helper()
	select {
	case err := <-d.done:
		if err == nil {
			return 0
		}
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode()
		}
		t.Fatalf("daemon wait: %v", err)
		return -1
	case <-time.After(timeout):
		d.cmd.Process.Kill()
		t.Fatalf("daemon still running after %v", timeout)
		return -1
	}
}

func postJob(t *testing.T, d *daemon, spec string) string {
	t.Helper()
	resp, err := http.Post(d.url("/jobs"), "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d (%s)", resp.StatusCode, v.Error)
	}
	return v.ID
}

// jobState fetches one job's state string ("" on transport error, so polls
// survive the daemon being killed under them).
func jobState(d *daemon, id string) (state, exit string) {
	resp, err := http.Get(d.url("/jobs/" + id))
	if err != nil {
		return "", ""
	}
	defer resp.Body.Close()
	var v struct {
		State string `json:"state"`
		Exit  string `json:"exit"`
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&v)
	return v.State, v.Exit
}

func waitJobState(t *testing.T, d *daemon, id, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		state, _ := jobState(d, id)
		if state == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s (last %q)", id, want, state)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// slowJob runs long enough (seconds) to be killed mid-solve.
const slowJob = `{"name":"grinder","options":{"outer":400,"inner":200},
	"gen":{"seed":7,"bits":8,"units":["adder","muxtree"],"random_cells":2500,"pads":16}}`

// midJob takes around a second: long enough to observe running, short enough
// to re-run quickly after a crash.
const midJob = `{"name":"mid","options":{"outer":20,"inner":20},
	"gen":{"seed":5,"bits":8,"units":["adder"],"random_cells":600,"pads":12}}`

func fetch(t *testing.T, d *daemon, path string) []byte {
	t.Helper()
	resp, err := http.Get(d.url(path))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %.200s", path, resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}

// TestDaemonSIGKILLRecovery is the acceptance crash test: SIGKILL the daemon
// mid-job, restart it on the same data dir, and the journal must requeue the
// job, which completes bit-identically to a never-interrupted run.
func TestDaemonSIGKILLRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	data := t.TempDir()
	d1 := startDaemon(t, data)
	id := postJob(t, d1, midJob)
	waitJobState(t, d1, id, "running", 60*time.Second)

	// SIGKILL: no drain, no journal terminal record, no goodbye.
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-d1.done
	os.Remove(filepath.Join(data, "dpplaced.addr")) // stale addr from the killed run

	d2 := startDaemon(t, data)
	// The replayed job must be requeued (not lost, not stuck running) and
	// then complete.
	waitJobState(t, d2, id, "done", 120*time.Second)
	var view struct {
		Requeued bool `json:"requeued"`
	}
	json.Unmarshal(fetch(t, d2, "/jobs/"+id), &view)
	if !view.Requeued {
		t.Error("recovered job is not marked requeued")
	}
	recovered := fetch(t, d2, "/jobs/"+id+"/placement")

	// Reference run of the same spec, never interrupted.
	refData := t.TempDir()
	ref := startDaemon(t, refData)
	refID := postJob(t, ref, midJob)
	waitJobState(t, ref, refID, "done", 120*time.Second)
	clean := fetch(t, ref, "/jobs/"+refID+"/placement")
	if !bytes.Equal(recovered, clean) {
		t.Error("placement after crash recovery differs from an uninterrupted run")
	}

	// Both daemons drain cleanly on SIGTERM.
	for _, d := range []*daemon{d2, ref} {
		d.cmd.Process.Signal(syscall.SIGTERM)
		if code := d.exitCode(t, 60*time.Second); code != exitOK {
			t.Errorf("clean drain exit code = %d, want %d", code, exitOK)
		}
	}
}

// TestDaemonSIGTERMDrain asserts the graceful path: in-flight jobs finish,
// new submissions bounce with 503, and the daemon exits 0.
func TestDaemonSIGTERMDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	data := t.TempDir()
	d := startDaemon(t, data)
	id := postJob(t, d, midJob)
	waitJobState(t, d, id, "running", 60*time.Second)

	d.cmd.Process.Signal(syscall.SIGTERM)
	// The HTTP surface stays up during the drain and refuses new work.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Post(d.url("/jobs"), "application/json", strings.NewReader(midJob))
		if err != nil {
			// Drain finished and the server closed before we got a 503 in:
			// acceptable, the exit code check below still proves the drain.
			break
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		// A 202 can still slip in during the instants between SIGTERM
		// delivery and the drain flag being set; jobs admitted there are
		// journaled and simply wait for the next instance. The drain must
		// start rejecting promptly, though.
		if time.Now().After(deadline) {
			t.Fatalf("drain never started rejecting submissions (last status %d)", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code := d.exitCode(t, 120*time.Second); code != exitOK {
		t.Fatalf("drain exit code = %d, want %d", code, exitOK)
	}
	// The in-flight job finished before the daemon left.
	d3 := startDaemon(t, data)
	state, exit := jobState(d3, id)
	if state != "done" || exit != "ok" {
		t.Fatalf("in-flight job after drain: state=%s exit=%s, want done/ok", state, exit)
	}
	d3.cmd.Process.Signal(syscall.SIGTERM)
	d3.exitCode(t, 60*time.Second)
}

// TestDaemonSIGTERMAtFirstReady sends SIGTERM the instant /readyz first
// answers 200 and requires a clean drain (exit 0). The daemon must trap
// the signal before it reports ready; otherwise the signal's default action
// kills it undrained. Several boots widen the window the check covers.
func TestDaemonSIGTERMAtFirstReady(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	for boot := 0; boot < 3; boot++ {
		d := startDaemon(t, t.TempDir())
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get(d.url("/readyz"))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				d.cmd.Process.Kill()
				t.Fatalf("boot %d: /readyz never answered 200", boot)
			}
			time.Sleep(time.Millisecond)
		}
		d.cmd.Process.Signal(syscall.SIGTERM)
		if code := d.exitCode(t, 60*time.Second); code != exitOK {
			t.Fatalf("boot %d: SIGTERM at first ready exited %d, want %d", boot, code, exitOK)
		}
	}
}

// TestDaemonForcedDrainCheckpoints covers the second-signal path: a grinding
// job cannot finish, the drain deadline forces a checkpoint, the daemon
// exits 3 and the next instance requeues the job.
func TestDaemonForcedDrainCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	data := t.TempDir()
	d := startDaemon(t, data, "-drain-timeout", "50ms")
	id := postJob(t, d, slowJob)
	waitJobState(t, d, id, "running", 60*time.Second)

	d.cmd.Process.Signal(syscall.SIGTERM)
	if code := d.exitCode(t, 120*time.Second); code != exitForced {
		t.Fatalf("forced drain exit code = %d, want %d", code, exitForced)
	}

	d2 := startDaemon(t, data)
	state, _ := jobState(d2, id)
	if state != "queued" && state != "running" {
		t.Fatalf("checkpointed job after restart: state=%s, want queued or running", state)
	}
	d2.cmd.Process.Signal(syscall.SIGTERM)
	d2.cmd.Process.Signal(syscall.SIGTERM) // force: the grinder is running again
	d2.exitCode(t, 120*time.Second)
}

// waitIdle polls /stats until no job is queued or running and the worker
// budget is back, so later scrapes see a settled registry.
func waitIdle(t *testing.T, d *daemon, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st struct {
			Queued       int `json:"queued"`
			Running      int `json:"running"`
			WorkersInUse int `json:"workers_in_use"`
		}
		if err := json.Unmarshal(fetch(t, d, "/stats"), &st); err != nil {
			t.Fatal(err)
		}
		if st.Queued == 0 && st.Running == 0 && st.WorkersInUse == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never went idle: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonServesMetrics reads the built binary's /metrics, which the
// in-process metrics tests cannot reach: after one job the registry has
// counted it and its global stage, two idle scrapes are byte-identical and
// the job report embeds the registry snapshot. During a SIGTERM drain with
// a job still running, /readyz answers 503 while /metrics answers 200.
func TestDaemonServesMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	d := startDaemon(t, t.TempDir())
	id := postJob(t, d, midJob)
	waitJobState(t, d, id, "done", 120*time.Second)
	waitIdle(t, d, 30*time.Second)

	text := fetch(t, d, "/metrics")
	for _, want := range []string{
		`dpplaced_jobs_total{state="done"} 1`,
		`dpplace_stage_seconds_count{stage="global"} 1`,
	} {
		if !bytes.Contains(text, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if again := fetch(t, d, "/metrics"); !bytes.Equal(again, text) {
		t.Error("two idle /metrics scrapes are not byte-identical")
	}
	var rep struct {
		Schema string `json:"schema"`
		Exit   string `json:"exit"`
		HPWL   struct {
			Final float64 `json:"final"`
		} `json:"hpwl"`
		MetricsSnapshot map[string]float64 `json:"metrics_snapshot"`
	}
	if err := json.Unmarshal(fetch(t, d, "/jobs/"+id+"/report"), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "dpplace-run-report/v1" || rep.Exit != "ok" || rep.HPWL.Final <= 0 || len(rep.MetricsSnapshot) == 0 {
		t.Errorf("report schema=%q exit=%q hpwl.final=%v metrics_snapshot=%d entries; want dpplace-run-report/v1, ok, > 0, non-empty",
			rep.Schema, rep.Exit, rep.HPWL.Final, len(rep.MetricsSnapshot))
	}

	grinder := postJob(t, d, slowJob)
	waitJobState(t, d, grinder, "running", 60*time.Second)
	d.cmd.Process.Signal(syscall.SIGTERM)
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.url("/readyz"))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never answered 503 during the drain")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !bytes.Contains(fetch(t, d, "/metrics"), []byte("dpplaced_jobs_running 1")) {
		t.Error("/metrics during the drain does not show the running job")
	}
	d.cmd.Process.Signal(syscall.SIGTERM) // force: the grinder would run for seconds more
	if code := d.exitCode(t, 120*time.Second); code != exitForced {
		t.Errorf("forced drain exit code = %d, want %d", code, exitForced)
	}
}

// TestUsageExitCode: bad flags exit 2.
func TestUsageExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cmd := exec.Command(daemonBin(t), "-no-such-flag")
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != exitUsage {
		t.Fatalf("bad flag: %v, want exit %d", err, exitUsage)
	}
}
