package serve

import (
	"context"

	"repro/internal/obs"
)

// State is a job's lifecycle position. Transitions:
//
//	queued → running → done | failed
//	queued → canceled                      (client cancel while queued)
//	running → canceled                     (client cancel mid-run)
//	running → queued                       (crash requeue or drain checkpoint)
type State string

// Job states.
const (
	// StateQueued means the job is admitted and waiting for workers.
	StateQueued State = "queued"
	// StateRunning means an attempt is executing.
	StateRunning State = "running"
	// StateDone means the job finished and its artifacts are served.
	StateDone State = "done"
	// StateFailed means the job ended in terminal failure.
	StateFailed State = "failed"
	// StateCanceled means a client canceled the job.
	StateCanceled State = "canceled"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is the daemon's record of one placement. Mutable fields are guarded by
// the server's mutex; the events broadcaster and the cancel func are set
// when the job starts running.
type Job struct {
	// ID is the stable job identifier ("j000042").
	ID string
	// Seq is the submission sequence number; it breaks priority ties FIFO.
	Seq uint64
	// Spec is the submitted job description.
	Spec *JobSpec

	// State is the current lifecycle position.
	State State
	// Attempt counts execution attempts (retries and requeues included).
	Attempt int
	// Retries counts attempts that ended in a retryable failure. Option
	// damping keys on this, never on Attempt: a crash-requeued job must
	// re-run with identical options to stay bit-identical.
	Retries int
	// Workers is the worker grant of the current or last attempt.
	Workers int
	// Exit is the pipeline taxonomy class once terminal.
	Exit string
	// Error is the failure detail once terminal (or the last retry's error).
	Error string
	// HPWL is the final wirelength once done.
	HPWL float64
	// Partial marks a best-iterate checkpoint result.
	Partial bool
	// Requeued marks a job recovered from the journal after a crash or
	// drain; its re-execution is safe because placement is deterministic.
	Requeued bool

	// sw times the job from admission (or requeue at daemon boot) to its
	// terminal state, feeding the end-to-end latency histogram. The zero
	// value means "never admitted by this process" and is not observed.
	sw obs.Stopwatch

	// cancel interrupts the running attempt (nil unless running).
	cancel context.CancelFunc
	// events fans the per-iteration telemetry out to SSE watchers; non-nil
	// from first run to terminal state.
	events *obs.LineBroadcaster
	// stateCh closes and is replaced on every state change, waking SSE
	// watchers polling for transitions.
	stateCh chan struct{}
}

// View is the JSON shape of a job in API responses.
type View struct {
	// ID is the job identifier.
	ID string `json:"id"`
	// Name echoes the spec's design name.
	Name string `json:"name,omitempty"`
	// State is the lifecycle position.
	State State `json:"state"`
	// Priority echoes the spec.
	Priority int `json:"priority,omitempty"`
	// Attempt counts execution attempts so far.
	Attempt int `json:"attempt,omitempty"`
	// Workers is the current/last worker grant.
	Workers int `json:"workers,omitempty"`
	// Exit is the taxonomy class once terminal.
	Exit string `json:"exit,omitempty"`
	// Error is the failure detail once terminal.
	Error string `json:"error,omitempty"`
	// HPWL is the final wirelength once done.
	HPWL float64 `json:"hpwl,omitempty"`
	// Partial marks a best-iterate checkpoint result.
	Partial bool `json:"partial,omitempty"`
	// Requeued marks recovery from the journal.
	Requeued bool `json:"requeued,omitempty"`
}

// view snapshots the job for the API. Caller holds the server mutex.
func (j *Job) view() View {
	name := ""
	if j.Spec != nil {
		name = j.Spec.Name
	}
	return View{
		ID: j.ID, Name: name, State: j.State, Priority: j.priority(),
		Attempt: j.Attempt, Workers: j.Workers, Exit: j.Exit, Error: j.Error,
		HPWL: j.HPWL, Partial: j.Partial, Requeued: j.Requeued,
	}
}

// priority returns the spec priority (0 for a nil spec).
func (j *Job) priority() int {
	if j.Spec == nil {
		return 0
	}
	return j.Spec.Priority
}

// notifyState closes the current state channel (waking watchers) and arms a
// fresh one. Caller holds the server mutex.
func (j *Job) notifyState() {
	if j.stateCh != nil {
		close(j.stateCh)
	}
	j.stateCh = make(chan struct{})
}

// jobQueue is the priority queue of queued jobs: higher priority first,
// submission order within a priority. It implements container/heap.
type jobQueue []*Job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(a, b int) bool {
	if pa, pb := q[a].priority(), q[b].priority(); pa != pb {
		return pa > pb
	}
	return q[a].Seq < q[b].Seq
}
func (q jobQueue) Swap(a, b int) { q[a], q[b] = q[b], q[a] }

// Push appends x (container/heap contract).
func (q *jobQueue) Push(x any) { *q = append(*q, x.(*Job)) }

// Pop removes and returns the last element (container/heap contract).
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return j
}

// remove deletes job from the queue slice if present, reporting whether it
// was found. Caller re-heapifies.
func (q *jobQueue) remove(job *Job) bool {
	for i, j := range *q {
		if j == job {
			old := *q
			old[i] = old[len(old)-1]
			old[len(old)-1] = nil
			*q = old[:len(old)-1]
			return true
		}
	}
	return false
}
