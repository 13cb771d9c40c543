package serve

import (
	"bufio"
	"container/heap"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/obs"
	obsmetrics "repro/internal/obs/metrics"
	"repro/internal/pipeline"
	"repro/internal/place/global"

	"sync"
)

// Config tunes the daemon. The zero value of every field selects a sane
// default, so tests can construct servers tersely.
type Config struct {
	// Dir is the data directory: journal.jsonl plus jobs/<id>/ artifact
	// directories. Required.
	Dir string
	// Workers is the shared worker budget across all concurrent placements
	// (0 = all cores). Each running job holds a slice of it.
	Workers int
	// QueueDepth caps the number of queued jobs before admission control
	// answers 429 (0 = 32).
	QueueDepth int
	// MaxCells caps the admission cost estimate per job (0 = 1,000,000).
	MaxCells int
	// DefaultTimeout bounds jobs that do not set timeout_seconds
	// (0 = 10 minutes).
	DefaultTimeout time.Duration
	// MaxRetries bounds retries of retryable failures per job (0 = 2;
	// negative = no retries).
	MaxRetries int
	// Heartbeat is the SSE heartbeat interval (0 = 10s).
	Heartbeat time.Duration
	// Log receives daemon-level logging; nil logs nothing. Counts of
	// daemon events live in Metrics.
	Log *obs.Recorder
	// Metrics is the fleet metrics registry served at /metrics; nil disables
	// metrics at zero cost (every instrument becomes an inert no-op).
	Metrics *obsmetrics.Registry
}

// fillDefaults resolves the zero values.
func (c *Config) fillDefaults() {
	if c.QueueDepth == 0 {
		c.QueueDepth = 32
	}
	if c.MaxCells == 0 {
		c.MaxCells = 1_000_000
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 10 * time.Minute
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = 10 * time.Second
	}
}

// Server is the placement-as-a-service daemon: journal, scheduler and HTTP
// surface over the core placement pipeline.
type Server struct {
	cfg     Config
	log     *obs.Recorder
	journal *Journal
	metrics *serverMetrics
	// workers is the shared worker budget (Config.Workers, 0 resolved to
	// GOMAXPROCS); running jobs hold inUse of it between them.
	workers int

	mu       sync.Mutex
	jobs     map[string]*Job
	queue    jobQueue
	nextSeq  uint64
	draining bool
	// drainKill marks that the drain deadline expired and the root context
	// was canceled; interrupted attempts journal EvInterrupt, not EvFail.
	drainKill bool
	running   int
	inUse     int
	highWater int // largest inUse ever observed

	// wake (capacity 1) is signaled when the queue gains a job, a runner
	// returns its workers, or drain begins; the dispatcher is its only reader.
	wake chan struct{}
	// rootCtx is the parent of every attempt's context; canceling it stops
	// the dispatcher, running attempts and retry backoffs alike.
	rootCtx    context.Context
	rootCancel context.CancelFunc

	startOnce  sync.Once
	dispatched chan struct{} // closed when the dispatcher exits
	runners    sync.WaitGroup
}

// New opens the data directory, replays the journal, requeues interrupted
// jobs, and returns a server ready to Start. Completed jobs keep serving
// their journaled results and artifacts.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: Config.Dir is required")
	}
	cfg.fillDefaults()
	journal, recs, err := OpenJournal(cfg.Dir)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rootCtx, rootCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		log:        cfg.Log,
		journal:    journal,
		metrics:    newServerMetrics(cfg.Metrics),
		workers:    workers,
		jobs:       make(map[string]*Job),
		wake:       make(chan struct{}, 1),
		rootCtx:    rootCtx,
		rootCancel: rootCancel,
		dispatched: make(chan struct{}),
	}
	// The journal reports appends and fsync latency, which happen under its
	// lock. With a nil registry every callback lands on inert instruments.
	s.metrics.budgetWorkers.Set(int64(s.workers))
	journal.Instrument(func(fsyncSec float64) {
		s.metrics.journalAppends.Inc()
		s.metrics.journalFsync.Observe(fsyncSec)
	})
	if err := s.replay(recs); err != nil {
		journal.Close()
		rootCancel()
		return nil, err
	}
	s.mu.Lock()
	s.syncGauges()
	s.mu.Unlock()
	return s, nil
}

// syncGauges refreshes the queue-depth, running-jobs and worker-budget
// gauges from the scheduler state. Caller holds the mutex; call after every
// mutation of the queue or the running count and after every grant or
// release of workers, so the budget gauges settle on the last change.
func (s *Server) syncGauges() {
	s.metrics.queueDepth.Set(int64(s.queue.Len()))
	s.metrics.jobsRunning.Set(int64(s.running))
	s.metrics.budgetInUse.Set(int64(s.inUse))
	s.metrics.budgetHighWater.Set(int64(s.highWater))
}

// replay folds journal records into the job table and requeues every job a
// previous daemon instance left mid-flight.
func (s *Server) replay(recs []Record) error {
	for _, rec := range recs {
		switch rec.Ev {
		case EvSubmit:
			if rec.Spec == nil {
				return fmt.Errorf("serve: journal submit record for %s has no spec", rec.Job)
			}
			s.jobs[rec.Job] = &Job{
				ID: rec.Job, Seq: rec.Seq, Spec: rec.Spec,
				State: StateQueued, stateCh: make(chan struct{}),
			}
			if rec.Seq >= s.nextSeq {
				s.nextSeq = rec.Seq + 1
			}
		case EvStart:
			if j := s.jobs[rec.Job]; j != nil {
				j.State = StateRunning
				j.Attempt = rec.Attempt
				j.Workers = rec.Workers
			}
		case EvRetry:
			if j := s.jobs[rec.Job]; j != nil {
				j.State = StateQueued
				j.Retries++
				j.Error = rec.Error
			}
		case EvDone:
			if j := s.jobs[rec.Job]; j != nil {
				j.State = StateDone
				j.Exit = rec.Exit
				j.HPWL = rec.HPWL
				j.Partial = rec.Partial
			}
		case EvFail:
			if j := s.jobs[rec.Job]; j != nil {
				j.State = StateFailed
				j.Exit = rec.Exit
				j.Error = rec.Error
			}
		case EvCancel:
			if j := s.jobs[rec.Job]; j != nil {
				j.State = StateCanceled
				j.Exit = rec.Exit
			}
		case EvInterrupt:
			if j := s.jobs[rec.Job]; j != nil {
				j.State = StateQueued
				j.Partial = rec.Partial
			}
		case EvRequeue, EvDrain:
			// Informational; job state is carried by the records above.
		}
	}
	// Jobs still marked running were interrupted by a crash (no terminal
	// record); jobs marked queued never got to run. Both go back on the
	// queue — bit-identical re-execution makes this safe.
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		j := s.jobs[id]
		if j.State.Terminal() {
			continue
		}
		interrupted := j.State == StateRunning
		j.State = StateQueued
		j.Requeued = true
		// The requeued job's latency clock restarts at daemon boot: the
		// duration histogram always measures within one process lifetime.
		j.sw = obs.StartStopwatch()
		heap.Push(&s.queue, j)
		s.metrics.jobState("queued")
		s.metrics.jobState("requeued")
		if interrupted {
			if err := s.journal.Append(Record{Ev: EvRequeue, Job: j.ID, Attempt: j.Attempt}); err != nil {
				return err
			}
			s.log.Logf(obs.Info, "serve", "job %s interrupted mid-attempt %d; requeued", j.ID, j.Attempt)
		}
	}
	return nil
}

// Start launches the dispatcher. Idempotent.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		go s.dispatch()
	})
}

// dispatch waits until a job is queued and a worker is free, pops the head
// of the priority heap, grants it min(asked, free) workers (asking 0 asks
// for the whole budget) and hands it to a runner goroutine. A job waiting
// for workers stays in the heap, so the queue gauge, /stats and admission
// control count it, and a higher-priority job that arrives meanwhile heads
// the heap in its place.
func (s *Server) dispatch() {
	defer close(s.dispatched)
	for {
		// wait times how long a queued job waited for a free worker; it is
		// never started when a worker was free.
		var wait obs.Stopwatch
		s.mu.Lock()
		for !s.draining && (s.queue.Len() == 0 || s.inUse == s.workers) {
			if s.queue.Len() == 0 {
				wait = obs.Stopwatch{}
			} else if !wait.Started() {
				wait = obs.StartStopwatch()
			}
			s.mu.Unlock()
			select {
			case <-s.wake:
			case <-s.rootCtx.Done():
				return
			}
			s.mu.Lock()
		}
		if s.draining {
			// Queued jobs stay queued in the journal; the next instance
			// requeues them.
			s.mu.Unlock()
			return
		}
		job := heap.Pop(&s.queue).(*Job)
		grant := s.workers - s.inUse
		if w := wantWorkers(job); w > 0 && w < grant {
			grant = w
		}
		s.inUse += grant
		s.highWater = max(s.highWater, s.inUse)
		s.running++
		s.runners.Add(1)
		s.metrics.leaseWait.Observe(wait.Seconds())
		s.syncGauges()
		s.mu.Unlock()
		go s.runJob(job, grant)
	}
}

// release returns n granted workers to the budget. Caller holds the mutex.
// Releasing more than was granted panics: it means a bookkeeping bug that
// would silently over-admit jobs.
func (s *Server) release(n int) {
	s.inUse -= n
	if s.inUse < 0 {
		panic("serve: released more workers than were granted")
	}
}

// wantWorkers is the worker count a job asks the budget for; 0 asks for
// the whole budget.
func wantWorkers(job *Job) int {
	if job.Spec == nil {
		return 0
	}
	return job.Spec.Options.Workers
}

// Submit admits a job: validates nothing (the HTTP layer decoded and
// validated the spec), applies admission control, journals the submit record
// and queues the job. Returns the job view, or an admission error:
// ErrDraining or ErrOverloaded.
func (s *Server) Submit(spec *JobSpec) (View, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.metrics.admissionRejects.With("draining").Inc()
		return View{}, ErrDraining
	}
	if s.queue.Len() >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.metrics.admissionRejects.With("queue_full").Inc()
		return View{}, fmt.Errorf("%w: queue depth %d reached", ErrOverloaded, s.cfg.QueueDepth)
	}
	if cost := EstimateCells(spec); cost > s.cfg.MaxCells {
		s.mu.Unlock()
		s.metrics.admissionRejects.With("too_large").Inc()
		return View{}, fmt.Errorf("%w: estimated %d cells exceed the %d cap",
			ErrOverloaded, cost, s.cfg.MaxCells)
	}
	seq := s.nextSeq
	s.nextSeq++
	job := &Job{
		ID:   fmt.Sprintf("j%06d", seq),
		Seq:  seq,
		Spec: spec,
		// State set below, after the journal accepts the submit record.
		State:   StateQueued,
		stateCh: make(chan struct{}),
		sw:      obs.StartStopwatch(),
	}
	s.mu.Unlock()

	// Journal before queueing: a job the scheduler can see must already be
	// recoverable from disk.
	if err := s.journal.Append(Record{Ev: EvSubmit, Job: job.ID, Seq: seq, Spec: spec}); err != nil {
		return View{}, err
	}

	s.mu.Lock()
	s.jobs[job.ID] = job
	heap.Push(&s.queue, job)
	v := job.view()
	s.metrics.jobState("queued")
	s.syncGauges()
	s.mu.Unlock()
	signal(s.wake)
	s.log.Logf(obs.Info, "serve", "job %s admitted (priority %d, ~%d cells)",
		job.ID, spec.Priority, EstimateCells(spec))
	return v, nil
}

// Admission errors. The HTTP layer maps ErrDraining to 503 and
// ErrOverloaded to 429.
var (
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("draining: not admitting new jobs")
	// ErrOverloaded rejects submissions the admission controller bounced.
	ErrOverloaded = errors.New("overloaded")
)

// Cancel cancels a job by id: queued jobs leave the queue immediately,
// running jobs get their context canceled and keep their best iterate.
func (s *Server) Cancel(id string) (View, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return View{}, ErrNoSuchJob
	}
	if job.State.Terminal() {
		v := job.view()
		s.mu.Unlock()
		return v, nil
	}
	wasQueued := job.State == StateQueued
	job.State = StateCanceled
	job.Exit = "canceled"
	job.notifyState()
	if wasQueued {
		if s.queue.remove(job) {
			heap.Init(&s.queue)
		}
		// Running jobs are counted terminal when their runner unwinds through
		// finishJob; queued jobs have no runner, so count here.
		s.countTerminal(job)
		s.syncGauges()
	}
	cancel := job.cancel
	v := job.view()
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if wasQueued {
		// Running jobs journal their cancel when the runner unwinds; queued
		// jobs have no runner, so record it here.
		if err := s.journal.Append(Record{Ev: EvCancel, Job: id, Exit: "canceled"}); err != nil {
			return v, err
		}
	}
	return v, nil
}

// ErrNoSuchJob reports an unknown job id (HTTP 404).
var ErrNoSuchJob = errors.New("no such job")

// Job returns one job's view.
func (s *Server) Job(id string) (View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return View{}, ErrNoSuchJob
	}
	return job.view(), nil
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []View {
	s.mu.Lock()
	defer s.mu.Unlock()
	views := make([]View, 0, len(s.jobs))
	for _, j := range s.jobs {
		views = append(views, j.view())
	}
	sort.Slice(views, func(a, b int) bool { return views[a].ID < views[b].ID })
	return views
}

// Stats is the daemon health snapshot served at /stats.
type Stats struct {
	// Queued is the current queue depth.
	Queued int `json:"queued"`
	// Running is the number of executing jobs.
	Running int `json:"running"`
	// WorkersTotal is the shared budget size.
	WorkersTotal int `json:"workers_total"`
	// WorkersInUse is the number of granted workers right now.
	WorkersInUse int `json:"workers_in_use"`
	// Draining reports graceful shutdown in progress.
	Draining bool `json:"draining"`
	// Jobs is the total job count, terminal jobs included.
	Jobs int `json:"jobs"`
}

// Stats snapshots the scheduler.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Queued: s.queue.Len(), Running: s.running,
		WorkersTotal: s.workers, WorkersInUse: s.inUse,
		Draining: s.draining, Jobs: len(s.jobs),
	}
}

// JobDir returns the artifact directory of a job id.
func (s *Server) JobDir(id string) string {
	return filepath.Join(s.cfg.Dir, "jobs", id)
}

// Drain performs graceful shutdown: stop admitting, let running jobs finish,
// and when ctx expires before they do, cancel the root context every attempt
// derives from. Running jobs then checkpoint their best iterate and journal
// an interrupt record for the next instance to requeue; a job sleeping in
// its retry backoff stays queued without starting another attempt. Returns
// the number of jobs that had to checkpoint. The journal is closed; the
// server cannot be reused.
func (s *Server) Drain(ctx context.Context) (checkpointed int, err error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return 0, fmt.Errorf("serve: already draining")
	}
	s.draining = true
	s.mu.Unlock()
	s.log.Logf(obs.Info, "serve", "drain: admission stopped")
	signal(s.wake) // wake the dispatcher so it observes draining

	finished := make(chan struct{})
	go func() {
		s.runners.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		// Deadline: running jobs checkpoint now, and jobs sleeping in
		// their retry backoff stay queued.
		s.mu.Lock()
		s.drainKill = true
		s.mu.Unlock()
		s.rootCancel()
		<-finished
	}
	// Stop the dispatcher (it may be waiting for a job or a free worker).
	s.rootCancel()
	<-s.dispatchedOrNever()

	s.mu.Lock()
	checkpointed = s.checkpointedCount()
	s.mu.Unlock()
	rec := Record{Ev: EvDrain, Checkpointed: checkpointed}
	if jerr := s.journal.Append(rec); jerr != nil && err == nil {
		err = jerr
	}
	if cerr := s.journal.Close(); cerr != nil && err == nil {
		err = cerr
	}
	s.log.Logf(obs.Info, "serve", "drain complete: %d jobs checkpointed", checkpointed)
	return checkpointed, err
}

// dispatchedOrNever returns the dispatcher-exit channel. When Start was
// never called (the sync.Once is still unfired) it closes the channel itself,
// so waiting on it cannot hang.
func (s *Server) dispatchedOrNever() <-chan struct{} {
	s.startOnce.Do(func() { close(s.dispatched) })
	return s.dispatched
}

// checkpointedCount counts jobs parked back in the queued state by a drain
// kill. Caller holds the mutex.
func (s *Server) checkpointedCount() int {
	n := 0
	//placelint:ignore maporder integer count is order independent
	for _, j := range s.jobs {
		if j.State == StateQueued && j.Requeued {
			n++
		}
	}
	return n
}

// signal performs a nonblocking send on a capacity-1 wake channel.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// runJob executes one job to a terminal state (or a drain checkpoint),
// retrying retryable failures with damped options. It owns `grant` workers
// of the shared budget for its whole duration, returning them at the end
// and waking the dispatcher.
func (s *Server) runJob(job *Job, grant int) {
	defer s.runners.Done()
	defer func() {
		s.mu.Lock()
		s.running--
		s.release(grant)
		s.syncGauges()
		s.mu.Unlock()
		signal(s.wake)
	}()

	for {
		retry, done := s.runAttempt(job, grant)
		if done {
			return
		}
		if !retry {
			return
		}
	}
}

// runAttempt executes one attempt. It returns retry=true when the job
// should run again (after this call journaled the retry record and slept
// the backoff), and done=true when the job reached a terminal state.
func (s *Server) runAttempt(job *Job, grant int) (retry, done bool) {
	jobCtx, cancel := context.WithCancel(s.rootCtx)
	defer cancel()

	s.mu.Lock()
	if job.State != StateQueued || jobCtx.Err() != nil {
		// Canceled between dispatch and start, or a forced drain began: a
		// queued job stays queued for the next instance.
		s.mu.Unlock()
		return false, true
	}
	job.State = StateRunning
	job.Attempt++
	job.Workers = grant
	job.cancel = cancel
	if job.events == nil {
		job.events = s.newJobBroadcaster()
	}
	attempt := job.Attempt
	retries := job.Retries
	spec := job.Spec
	job.notifyState()
	s.metrics.jobState("running")
	s.mu.Unlock()

	if err := s.journal.Append(Record{Ev: EvStart, Job: job.ID, Attempt: attempt, Workers: grant}); err != nil {
		s.failJob(job, "error", fmt.Sprintf("journal: %v", err))
		return false, true
	}
	s.log.Logf(obs.Info, "serve", "job %s attempt %d starting on %d workers", job.ID, attempt, grant)

	result := s.place(jobCtx, job, spec, grant, retries)

	// The crash window a SIGKILL can always hit: solve finished, terminal
	// record not yet journaled. Tests arm this site to prove the journal
	// replays the job to an identical placement.
	if faultinject.Hit(faultinject.SiteServeCrashBeforeCommit) {
		return false, true
	}

	s.mu.Lock()
	canceled := job.State == StateCanceled
	drainKilled := s.drainKill && jobCtx.Err() != nil && !canceled
	s.mu.Unlock()

	switch {
	case canceled:
		s.journal.Append(Record{Ev: EvCancel, Job: job.ID, Attempt: attempt, Exit: "canceled"})
		s.finishJob(job, StateCanceled, "canceled", result)
		return false, true

	case drainKilled:
		// Checkpointed by the drain deadline: journal the interrupt so the
		// next daemon instance requeues the job.
		s.journal.Append(Record{Ev: EvInterrupt, Job: job.ID, Attempt: attempt,
			Error: result.errString(), Partial: result.partial})
		s.mu.Lock()
		job.State = StateQueued
		job.Requeued = true
		job.Partial = result.partial
		job.notifyState()
		s.metrics.jobState("queued")
		s.metrics.jobState("requeued")
		s.mu.Unlock()
		return false, true

	case result.err == nil || result.usable:
		s.journal.Append(Record{Ev: EvDone, Job: job.ID, Attempt: attempt,
			Exit: result.class(), HPWL: result.hpwl, Partial: result.partial})
		s.finishJob(job, StateDone, result.class(), result)
		return false, true

	case pipeline.Retryable(result.err) && retries < s.cfg.MaxRetries:
		s.journal.Append(Record{Ev: EvRetry, Job: job.ID, Attempt: attempt,
			Exit: result.class(), Error: result.errString()})
		s.mu.Lock()
		job.Retries++
		job.State = StateQueued
		job.Error = result.errString()
		job.notifyState()
		nRetries := job.Retries
		s.metrics.jobState("queued")
		s.mu.Unlock()
		s.metrics.retries.With(result.class()).Inc()
		s.log.Logf(obs.Warn, "serve", "job %s attempt %d failed (%s); retrying with damped options",
			job.ID, attempt, result.class())
		if !backoff(jobCtx, nRetries) {
			// Canceled or drained during backoff; next loop settles state.
			s.mu.Lock()
			stillQueued := job.State == StateQueued
			s.mu.Unlock()
			if stillQueued {
				s.journal.Append(Record{Ev: EvInterrupt, Job: job.ID, Attempt: attempt})
				return false, true
			}
		}
		return true, false

	default:
		s.journal.Append(Record{Ev: EvFail, Job: job.ID, Attempt: attempt,
			Exit: result.class(), Error: result.errString()})
		s.finishJob(job, StateFailed, result.class(), result)
		return false, true
	}
}

// backoff sleeps the damped-retry delay (100ms doubling per retry, capped at
// 2s), returning false when ctx expired first.
func backoff(ctx context.Context, retries int) bool {
	d := 100 * time.Millisecond << uint(retries-1)
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// finishJob moves job to a terminal state and closes its event stream.
func (s *Server) finishJob(job *Job, state State, exit string, result attemptResult) {
	s.mu.Lock()
	job.State = state
	job.Exit = exit
	job.Error = result.errString()
	job.HPWL = result.hpwl
	job.Partial = result.partial
	job.notifyState()
	s.countTerminal(job)
	events := job.events
	s.mu.Unlock()
	if events != nil {
		events.Close()
	}
}

// countTerminal records one job reaching a terminal state: the transition
// counter plus the end-to-end latency histogram (skipped for jobs whose
// admission clock never started, e.g. journal-replayed terminal jobs).
// Caller holds the mutex.
func (s *Server) countTerminal(job *Job) {
	s.metrics.jobState(string(job.State))
	if job.sw.Started() {
		s.metrics.jobDuration.Observe(job.sw.Seconds())
	}
}

// newJobBroadcaster builds a job's telemetry broadcaster with its drops wired
// to the fleet dropped-lines counter.
func (s *Server) newJobBroadcaster() *obs.LineBroadcaster {
	b := obs.NewLineBroadcaster()
	b.SetDropHook(func() { s.metrics.sseDropped.Inc() })
	return b
}

// failJob is finishJob for infrastructure failures that have no attempt
// result.
func (s *Server) failJob(job *Job, exit, msg string) {
	s.finishJob(job, StateFailed, exit, attemptResult{err: errors.New(msg)})
}

// attemptResult carries one attempt's outcome between place and the journal
// bookkeeping.
type attemptResult struct {
	err     error
	hpwl    float64
	partial bool
	// usable marks a failed attempt that still produced a legal best-iterate
	// placement (deadline checkpoints); the job counts as done-partial.
	usable bool
}

// class maps the attempt error to its taxonomy class.
func (r attemptResult) class() string { return pipeline.Classify(r.err) }

// errString renders the attempt error ("" when nil).
func (r attemptResult) errString() string {
	if r.err == nil {
		return ""
	}
	return r.err.Error()
}

// place runs the placement flow for one attempt: build the design from the
// journaled spec, wire a per-job recorder whose JSONL trace lands both in
// the artifact directory and on the SSE broadcaster, run core.PlaceCtx under
// the job deadline, and write the run report and placement artifacts.
func (s *Server) place(ctx context.Context, job *Job, spec *JobSpec, workers, retries int) attemptResult {
	d, err := BuildDesign(spec)
	if err != nil {
		return attemptResult{err: err}
	}
	chip, err := coreOf(d)
	if err != nil {
		return attemptResult{err: err}
	}

	dir := s.JobDir(job.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return attemptResult{err: fmt.Errorf("serve: job dir: %w", err)}
	}
	if err := writeSpecFile(filepath.Join(dir, "spec.json"), spec); err != nil {
		return attemptResult{err: err}
	}

	// Per-job recorder: collected counters feed the run report; the JSONL
	// trace tees into trace.jsonl and the SSE broadcaster.
	rec := obs.New()
	rec.Collect()
	traceFile, err := os.Create(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		return attemptResult{err: fmt.Errorf("serve: trace file: %w", err)}
	}
	bw := bufio.NewWriter(traceFile)
	rec.SetTrace(io.MultiWriter(bw, job.events))
	defer func() {
		bw.Flush()
		traceFile.Close()
	}()

	opt := buildOptions(spec, workers, retries)
	timeout := s.cfg.DefaultTimeout
	if spec.TimeoutSeconds > 0 {
		timeout = time.Duration(spec.TimeoutSeconds * float64(time.Second))
	}
	runCtx, cancel := pipeline.WithBudget(obs.NewContext(ctx, rec), timeout)
	defer cancel()

	sw := obs.StartStopwatch()
	res, runErr := core.PlaceCtx(runCtx, d.Netlist, chip, d.Placement, opt)
	s.metrics.stageSeconds.With("place").Observe(sw.Seconds())
	out := attemptResult{err: runErr}
	if res == nil {
		return out
	}
	out.partial = res.Partial
	out.hpwl = res.HPWLFinal
	// A legal checkpointed placement is a servable result even when the run
	// erred at its deadline.
	out.usable = runErr != nil && errors.Is(runErr, pipeline.ErrTimeout) && res.LegalityChecked

	var mrep *metrics.Report
	if res.LegalityChecked {
		sw = obs.StartStopwatch()
		r := metrics.Evaluate(d.Netlist, res.Placement, chip,
			metrics.Options{Obs: rec, Workers: workers})
		s.metrics.stageSeconds.With("metrics").Observe(sw.Seconds())
		mrep = &r
	}
	// Record this attempt in the fleet registry before snapshotting, so the
	// report's metrics_snapshot includes the work it describes.
	s.metrics.observeResult(res)
	snapshot := s.cfg.Metrics.Snapshot()
	if err := writeJobReport(filepath.Join(dir, "report.json"), d.Netlist.Name, opt.Mode, res, mrep, runErr, rec, snapshot); err != nil {
		s.log.Logf(obs.Warn, "serve", "job %s: %v", job.ID, err)
	}
	if res.LegalityChecked {
		if err := writePlacementFile(filepath.Join(dir, "out.pl"), d, res); err != nil {
			s.log.Logf(obs.Warn, "serve", "job %s: %v", job.ID, err)
		}
	}
	return out
}

// buildOptions maps the spec (plus the scheduler's worker grant and the
// retry damping level) onto core.Options. Damping is keyed on the retry
// count, never the attempt number: a crash-requeued job must re-run with
// identical options so its re-execution is bit-identical, while a
// divergence retry runs a gentler schedule (fallback degradation, halved
// inner iterations per retry).
func buildOptions(spec *JobSpec, workers, retries int) core.Options {
	o := spec.Options
	opt := core.Options{
		Multilevel: o.Multilevel,
		Global: global.Options{
			WLModel:       o.Model,
			MaxOuterIters: o.Outer,
			InnerIters:    o.Inner,
			Workers:       workers,
		},
	}
	if opt.Global.InnerIters == 0 {
		// The retry damping below halves the resolved budget.
		opt.Global.InnerIters = global.DefaultInnerIters
	}
	if o.Mode != "baseline" {
		opt.Mode = core.StructureAware
	}
	if o.OnDegrade == "fail" {
		opt.OnDegrade = core.DegradeFail
	}
	for r := 0; r < retries; r++ {
		// Damped options per retry: a solve that diverged gets a gentler
		// (shorter) inner schedule, and degradation switches to fallback so
		// degenerate groups stop being fatal.
		opt.Global.InnerIters = max(10, opt.Global.InnerIters/2)
		opt.OnDegrade = core.DegradeFallback
	}
	return opt
}
