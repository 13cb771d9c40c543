package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/pipeline"
)

// fastSpec is a placement small enough to finish in tens of milliseconds.
func fastSpec(name string, seed int64) *JobSpec {
	return &JobSpec{
		Name: name,
		Gen: &GenSpec{
			Seed: seed, Bits: 4, Units: []string{"adder"},
			RandomCells: 40, Pads: 8,
		},
		Options: SpecOptions{Outer: 3, Inner: 8, Workers: 1},
	}
}

// slowSpec is a placement that grinds long enough to still be running when a
// test drains or cancels it.
func slowSpec(name string) *JobSpec {
	return &JobSpec{
		Name: name,
		Gen: &GenSpec{
			Seed: 7, Bits: 8, Units: []string{"adder", "muxtree"},
			RandomCells: 2500, Pads: 16,
		},
		Options: SpecOptions{Outer: 400, Inner: 200, Workers: 1},
	}
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// waitState polls until the job satisfies pred or the deadline passes.
func waitState(t *testing.T, s *Server, id string, timeout time.Duration, pred func(View) bool) View {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v, err := s.Job(id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		if pred(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s after %v", id, v.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitTerminal(t *testing.T, s *Server, id string, timeout time.Duration) View {
	t.Helper()
	return waitState(t, s, id, timeout, func(v View) bool { return v.State.Terminal() })
}

func TestSubmitRunsToCompletion(t *testing.T) {
	s := newServer(t, Config{Workers: 2})
	defer s.Close()
	s.Start()

	v, err := s.Submit(fastSpec("e2e", 11))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitTerminal(t, s, v.ID, 60*time.Second)
	if got.State != StateDone {
		t.Fatalf("job ended %s (exit %q, error %q), want done", got.State, got.Exit, got.Error)
	}
	if got.Exit != "ok" {
		t.Fatalf("exit = %q, want ok", got.Exit)
	}
	if got.HPWL <= 0 {
		t.Fatalf("HPWL = %v, want > 0", got.HPWL)
	}

	// The artifact directory holds the full result set.
	dir := s.JobDir(v.ID)
	repB, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatalf("report artifact: %v", err)
	}
	var rep struct {
		Schema string `json:"schema"`
		Exit   string `json:"exit"`
		HPWL   struct{ Final float64 }
	}
	if err := json.Unmarshal(repB, &rep); err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	if rep.Schema != "dpplace-run-report/v1" {
		t.Fatalf("report schema = %q", rep.Schema)
	}
	if rep.Exit != "ok" {
		t.Fatalf("report exit = %q", rep.Exit)
	}
	for _, f := range []string{"spec.json", "trace.jsonl", "out.pl"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("artifact %s: %v", f, err)
		}
	}
}

// TestCrashRequeueBitIdentical is the headline crash-safety test: a fault at
// the narrowest SIGKILL window (solve finished, terminal record not yet
// journaled) leaves a start-without-terminal journal. A new server instance
// must requeue the job and — placements being deterministic — produce a
// placement byte-identical to an uninterrupted run of the same spec.
func TestCrashRequeueBitIdentical(t *testing.T) {
	dir := t.TempDir()

	faultinject.Enable(1, faultinject.Spec{Site: faultinject.SiteServeCrashBeforeCommit, Count: 1})
	defer faultinject.Disable()

	s1 := newServer(t, Config{Dir: dir, Workers: 1})
	s1.Start()
	v, err := s1.Submit(fastSpec("crashy", 42))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// The runner exits without a terminal record: the job looks running in
	// memory but the scheduler shows no running job.
	waitState(t, s1, v.ID, 60*time.Second, func(jv View) bool {
		return jv.State == StateRunning && s1.Stats().Running == 0
	})
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	faultinject.Disable()

	// Restart on the same data dir: the journal shows attempt 1 started and
	// never ended, so the job must be requeued.
	s2 := newServer(t, Config{Dir: dir, Workers: 1})
	defer s2.Close()
	rv, err := s2.Job(v.ID)
	if err != nil {
		t.Fatalf("replayed job: %v", err)
	}
	if rv.State != StateQueued || !rv.Requeued {
		t.Fatalf("replayed job state=%s requeued=%v, want queued/requeued", rv.State, rv.Requeued)
	}
	s2.Start()
	got := waitTerminal(t, s2, v.ID, 60*time.Second)
	if got.State != StateDone {
		t.Fatalf("requeued job ended %s (%s), want done", got.State, got.Error)
	}

	// Reference: the same spec, uninterrupted, in a fresh data dir.
	ref := newServer(t, Config{Workers: 1})
	defer ref.Close()
	ref.Start()
	rvv, err := ref.Submit(fastSpec("crashy", 42))
	if err != nil {
		t.Fatalf("reference Submit: %v", err)
	}
	waitTerminal(t, ref, rvv.ID, 60*time.Second)

	crashed, err := os.ReadFile(filepath.Join(s2.JobDir(v.ID), "out.pl"))
	if err != nil {
		t.Fatalf("crashed-run placement: %v", err)
	}
	clean, err := os.ReadFile(filepath.Join(ref.JobDir(rvv.ID), "out.pl"))
	if err != nil {
		t.Fatalf("reference placement: %v", err)
	}
	if !bytes.Equal(crashed, clean) {
		t.Fatal("requeued re-execution produced a different placement than an uninterrupted run")
	}
}

func TestDrainRejectsNewAndFinishesInFlight(t *testing.T) {
	s := newServer(t, Config{Workers: 2})
	s.Start()
	v, err := s.Submit(fastSpec("inflight", 3))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Draining only protects jobs the dispatcher already started; wait until
	// this one is actually in flight (or already finished).
	waitState(t, s, v.ID, 60*time.Second, func(jv View) bool {
		return jv.State == StateRunning || jv.State.Terminal()
	})
	// Generous deadline: the in-flight job must be allowed to finish.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	checkpointed, err := s.Drain(ctx)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if checkpointed != 0 {
		t.Fatalf("clean drain checkpointed %d jobs, want 0", checkpointed)
	}
	got, err := s.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("in-flight job ended %s, want done", got.State)
	}
	if _, err := s.Submit(fastSpec("late", 4)); err == nil || err != ErrDraining {
		t.Fatalf("submit during drain: err = %v, want ErrDraining", err)
	}
}

func TestDrainDeadlineCheckpointsAndRestartRequeues(t *testing.T) {
	dir := t.TempDir()
	s := newServer(t, Config{Dir: dir, Workers: 1})
	s.Start()
	v, err := s.Submit(slowSpec("grinder"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, v.ID, 60*time.Second, func(jv View) bool { return jv.State == StateRunning })

	// A deadline that is already expired forces the checkpoint path at once.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	checkpointed, err := s.Drain(ctx)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if checkpointed != 1 {
		t.Fatalf("checkpointed = %d, want 1", checkpointed)
	}
	got, err := s.Job(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateQueued || !got.Requeued {
		t.Fatalf("checkpointed job state=%s requeued=%v, want queued/requeued", got.State, got.Requeued)
	}

	// The next daemon instance picks the job back up from the journal.
	s2 := newServer(t, Config{Dir: dir, Workers: 1})
	defer s2.Close()
	rv, err := s2.Job(v.ID)
	if err != nil {
		t.Fatalf("replayed job: %v", err)
	}
	if rv.State != StateQueued {
		t.Fatalf("replayed job state = %s, want queued", rv.State)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	defer s.Close()
	s.Start()

	running, err := s.Submit(slowSpec("victim-running"))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(fastSpec("victim-queued", 5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, 60*time.Second, func(v View) bool { return v.State == StateRunning })

	if v, err := s.Cancel(queued.ID); err != nil || v.State != StateCanceled {
		t.Fatalf("cancel queued: %v state=%s", err, v.State)
	}
	if v, err := s.Cancel(running.ID); err != nil || v.State != StateCanceled {
		t.Fatalf("cancel running: %v state=%s", err, v.State)
	}
	// The runner unwinds and the worker budget frees up.
	deadline := time.Now().Add(60 * time.Second)
	for s.Stats().WorkersInUse != 0 {
		if time.Now().After(deadline) {
			t.Fatal("canceled job never released its workers")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBudgetSharedAcrossJobs floods the scheduler at several budget sizes
// and asserts the shared worker budget never over-grants; run with -race.
func TestBudgetSharedAcrossJobs(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		t.Run(map[int]string{1: "workers1", 2: "workers2", 4: "workers4"}[workers], func(t *testing.T) {
			s := newServer(t, Config{Workers: workers})
			defer s.Close()
			s.Start()
			var ids []string
			for i := 0; i < 5; i++ {
				v, err := s.Submit(fastSpec("flood", int64(100+i)))
				if err != nil {
					t.Fatalf("Submit %d: %v", i, err)
				}
				ids = append(ids, v.ID)
			}
			for _, id := range ids {
				got := waitTerminal(t, s, id, 120*time.Second)
				if got.State != StateDone {
					t.Fatalf("job %s ended %s (%s)", id, got.State, got.Error)
				}
			}
			if hw := s.budget.HighWater(); hw > workers {
				t.Fatalf("budget high-water %d exceeds the %d-worker budget", hw, workers)
			}
			if used := s.budget.InUse(); used != 0 {
				t.Fatalf("%d workers still held after all jobs finished", used)
			}
		})
	}
}

// TestPriorityOrdering occupies the single worker, then queues a low- and a
// high-priority job; the journal's start records must show the high-priority
// job ran first.
func TestPriorityOrdering(t *testing.T) {
	dir := t.TempDir()
	s := newServer(t, Config{Dir: dir, Workers: 1})
	s.Start()

	blocker, err := s.Submit(slowSpec("blocker"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, 60*time.Second, func(v View) bool { return v.State == StateRunning })

	low := fastSpec("low", 1)
	low.Priority = -1
	lo, err := s.Submit(low)
	if err != nil {
		t.Fatal(err)
	}
	high := fastSpec("high", 2)
	high.Priority = 10
	hi, err := s.Submit(high)
	if err != nil {
		t.Fatal(err)
	}
	// Unblock the worker and let the queue drain.
	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, lo.ID, 120*time.Second)
	waitTerminal(t, s, hi.ID, 120*time.Second)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := replayFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var starts []string
	for _, r := range recs {
		if r.Ev == EvStart {
			starts = append(starts, r.Job)
		}
	}
	if len(starts) != 3 {
		t.Fatalf("journal has %d start records %v, want 3", len(starts), starts)
	}
	if starts[1] != hi.ID || starts[2] != lo.ID {
		t.Fatalf("start order %v: high-priority %s must run before low-priority %s",
			starts, hi.ID, lo.ID)
	}
}

func TestAdmissionControl(t *testing.T) {
	t.Run("queue-full", func(t *testing.T) {
		s := newServer(t, Config{Workers: 1, QueueDepth: 1})
		defer s.Close()
		// Dispatcher never started: the first job sits in the queue.
		if _, err := s.Submit(fastSpec("a", 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(fastSpec("b", 2)); err == nil {
			t.Fatal("submit past the queue depth succeeded")
		}
	})
	t.Run("too-large", func(t *testing.T) {
		s := newServer(t, Config{Workers: 1, MaxCells: 10})
		defer s.Close()
		if _, err := s.Submit(fastSpec("big", 1)); err == nil {
			t.Fatal("oversized job admitted past MaxCells")
		}
	})
}

// TestJournalReplayStates exercises replay directly against a synthetic
// journal covering every record shape.
func TestJournalReplayStates(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := fastSpec("replayed", 9)
	appendAll := func(recs ...Record) {
		t.Helper()
		for _, r := range recs {
			if err := j.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendAll(
		// j000000: completed; must keep serving its result, not requeue.
		Record{Ev: EvSubmit, Job: "j000000", Seq: 0, Spec: spec},
		Record{Ev: EvStart, Job: "j000000", Attempt: 1, Workers: 2},
		Record{Ev: EvDone, Job: "j000000", Attempt: 1, Exit: "ok", HPWL: 123.5},
		// j000001: started, no terminal record — crashed; must requeue.
		Record{Ev: EvSubmit, Job: "j000001", Seq: 1, Spec: spec},
		Record{Ev: EvStart, Job: "j000001", Attempt: 1, Workers: 1},
		// j000002: failed after a retry; stays failed.
		Record{Ev: EvSubmit, Job: "j000002", Seq: 2, Spec: spec},
		Record{Ev: EvStart, Job: "j000002", Attempt: 1, Workers: 1},
		Record{Ev: EvRetry, Job: "j000002", Attempt: 1, Exit: "diverged", Error: "diverged"},
		Record{Ev: EvStart, Job: "j000002", Attempt: 2, Workers: 1},
		Record{Ev: EvFail, Job: "j000002", Attempt: 2, Exit: "diverged", Error: "diverged"},
		// j000003: admitted, never started; must requeue quietly.
		Record{Ev: EvSubmit, Job: "j000003", Seq: 3, Spec: spec},
	)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s := newServer(t, Config{Dir: dir, Workers: 1})
	defer s.Close()
	want := map[string]struct {
		state    State
		requeued bool
	}{
		"j000000": {StateDone, false},
		"j000001": {StateQueued, true},
		"j000002": {StateFailed, false},
		"j000003": {StateQueued, true},
	}
	for id, w := range want {
		v, err := s.Job(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if v.State != w.state || v.Requeued != w.requeued {
			t.Errorf("job %s: state=%s requeued=%v, want %s/%v",
				id, v.State, v.Requeued, w.state, w.requeued)
		}
	}
	if v, _ := s.Job("j000000"); v.HPWL != 123.5 {
		t.Errorf("done job lost its journaled HPWL: %v", v.HPWL)
	}
	// New submissions continue the sequence after the replayed ids.
	nv, err := s.Submit(fastSpec("next", 10))
	if err != nil {
		t.Fatal(err)
	}
	if nv.ID != "j000004" {
		t.Errorf("next id = %s, want j000004", nv.ID)
	}
}

// TestReplayedEmptyGenSpecFails replays submit records for gen specs that
// yield no movable cell, journaled before validation rejected them. Each job
// must fail as malformed input, which is not retried, and the daemon must
// keep serving rather than panic in the generator on every restart.
func TestReplayedEmptyGenSpecFails(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range []*GenSpec{{}, {Units: []string{""}}} {
		id := fmt.Sprintf("j%06d", i)
		if err := j.Append(Record{Ev: EvSubmit, Job: id, Seq: uint64(i), Spec: &JobSpec{Gen: g}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s := newServer(t, Config{Dir: dir, Workers: 1})
	defer s.Close()
	s.Start()
	for _, id := range []string{"j000000", "j000001"} {
		v := waitTerminal(t, s, id, 30*time.Second)
		if v.State != StateFailed || v.Exit != pipeline.ClassMalformed || v.Attempt != 1 {
			t.Errorf("job %s: state %s exit %q after %d attempts, want failed %q after one",
				id, v.State, v.Exit, v.Attempt, pipeline.ClassMalformed)
		}
	}
	v, err := s.Submit(fastSpec("after", 3))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, s, v.ID, 60*time.Second); got.State != StateDone {
		t.Fatalf("job after the failed replays ended %s (exit %q, error %q), want done",
			got.State, got.Exit, got.Error)
	}
}

// TestJournalTruncatedTail simulates dying mid-append: the torn final line
// is dropped, everything before it replays.
func TestJournalTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Ev: EvSubmit, Job: "j000000", Seq: 0, Spec: fastSpec("torn", 1)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "journal.jsonl")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"ev":"start","job":"j0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s := newServer(t, Config{Dir: dir, Workers: 1})
	defer s.Close()
	v, err := s.Job("j000000")
	if err != nil {
		t.Fatalf("replay after torn tail: %v", err)
	}
	// The torn start record is gone; the job replays as never-started.
	if v.State != StateQueued {
		t.Fatalf("state = %s, want queued", v.State)
	}
}

// TestJournalRejectsInteriorCorruption: garbage in the middle of the journal
// is not survivable and must fail loudly, not silently drop jobs.
func TestJournalRejectsInteriorCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	content := `{"ev":"schema","schema":"dpplaced-journal/v1"}
not json at all
{"ev":"submit","job":"j000000","seq":0}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Dir: dir}); err == nil {
		t.Fatal("New accepted a journal with interior corruption")
	}
}

func TestJournalRejectsSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	if err := os.WriteFile(path, []byte(`{"ev":"schema","schema":"dpplaced-journal/v0"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Dir: dir}); err == nil {
		t.Fatal("New accepted a journal with a foreign schema")
	}
}
