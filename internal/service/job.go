package service

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/sinet-io/sinet/internal/core"
	"github.com/sinet-io/sinet/internal/tracing"
)

// State is a job's lifecycle position. The machine is
// queued → running → done|failed|canceled, with queued → canceled allowed
// (cancel before a worker picks the job up) and done reachable directly at
// submission for cache hits.
type State string

// Job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one progress/state notification streamed over SSE.
type Event struct {
	JobID     string `json:"id"`
	State     State  `json:"state"`
	Phase     string `json:"phase,omitempty"`
	Completed int    `json:"completed,omitempty"`
	Total     int    `json:"total,omitempty"`
	Error     string `json:"error,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
}

// JobView is the API representation of a job.
type JobView struct {
	ID          string     `json:"id"`
	Key         string     `json:"key"`
	Kind        string     `json:"kind"`
	State       State      `json:"state"`
	Cached      bool       `json:"cached"`
	Error       string     `json:"error,omitempty"`
	Phase       string     `json:"phase,omitempty"`
	Completed   int        `json:"completed,omitempty"`
	Total       int        `json:"total,omitempty"`
	CreatedAt   time.Time  `json:"created_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	ResultBytes int        `json:"result_bytes"`
}

// Job is one submitted campaign. All mutable state is guarded by mu; the
// result bytes are immutable once the job is terminal.
type Job struct {
	ID   string
	Key  Key
	Spec *JobSpec

	mu        sync.Mutex
	state     State
	err       string
	cached    bool
	result    []byte
	phase     string
	completed int
	total     int

	created  time.Time
	started  time.Time
	finished time.Time

	cancelRequested bool
	cancel          context.CancelFunc

	// attempt counts begun executions, including attempts journaled by a
	// previous process when the job was re-admitted after a crash.
	attempt int
	// stuck marks an attempt shot down by the heartbeat watchdog, so the
	// worker can tell watchdog cancellation from a user cancel.
	stuck    bool
	lastBeat time.Time
	// checkpoint accumulates the completed work units of every attempt;
	// the next attempt (or the next process, via journal replay) resumes
	// from it instead of recomputing. The terminal transition drops it:
	// no attempt follows, and a finished job stays in the server's table
	// until maxFinishedJobs later ones push it out.
	checkpoint *core.Checkpoint

	// trace is the job's distributed-trace identity: the root "job" span's
	// context, under which every attempt, phase and retry span nests.
	// rootSpan is the live root, ended at the terminal transition; it is
	// nil for replayed jobs (the original root died with the old process;
	// the restored trace keeps their resumed attempts on the original
	// timeline) and when tracing is off.
	trace    tracing.SpanContext
	rootSpan *tracing.Span
	// enqueued timestamps the latest queue entry (submit or retry requeue)
	// so worker pickup can record the queue.wait span retrospectively.
	enqueued time.Time

	doneCh chan struct{}
	subs   map[chan Event]struct{}
}

func newJob(id string, key Key, spec *JobSpec) *Job {
	now := time.Now().UTC()
	return &Job{
		ID:       id,
		Key:      key,
		Spec:     spec,
		state:    StateQueued,
		created:  now,
		enqueued: now,
		doneCh:   make(chan struct{}),
		subs:     map[chan Event]struct{}{},
	}
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// State returns the current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// runtime returns the wall time from worker pickup to the terminal
// state, or to end while the job has none (zero for jobs that never ran:
// cache hits, canceled-while-queued).
func (j *Job) runtime(end time.Time) time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.finished.IsZero() {
		end = j.finished
	}
	if j.started.IsZero() {
		return 0
	}
	return end.Sub(j.started)
}

// Result returns the serialized result and whether the job is done.
func (j *Job) Result() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == StateDone
}

// View snapshots the job for the API.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.ID,
		Key:         string(j.Key),
		Kind:        j.Spec.Kind,
		State:       j.state,
		Cached:      j.cached,
		Error:       j.err,
		Phase:       j.phase,
		Completed:   j.completed,
		Total:       j.total,
		CreatedAt:   j.created,
		ResultBytes: len(j.result),
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v
}

// event snapshots the notification for the current state.
func (j *Job) event() Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.eventLocked()
}

// eventLocked is event for callers holding mu.
func (j *Job) eventLocked() Event {
	return Event{
		JobID:     j.ID,
		State:     j.state,
		Phase:     j.phase,
		Completed: j.completed,
		Total:     j.total,
		Error:     j.err,
		Cached:    j.cached,
	}
}

// publishLocked fans the current state out to subscribers without
// blocking: a subscriber that cannot keep up loses intermediate progress
// events but never the terminal one — SSE streams watch Done() as well.
func (j *Job) publishLocked() {
	ev := j.eventLocked()
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// Subscribe registers for state/progress events. The returned cancel must
// be called to release the subscription.
func (j *Job) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 16)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// setProgress records phase progress, refreshes the heartbeat the
// watchdog checks and notifies subscribers. Progress is the one sign of
// life: a checkpointed unit reports its progress right after its save.
func (j *Job) setProgress(phase string, completed, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		return
	}
	j.lastBeat = time.Now()
	j.phase = phase
	j.completed = completed
	j.total = total
	j.publishLocked()
}

// begin moves the job to running and derives its cancellable context from
// base, returning the 1-based attempt number. It returns false when the
// job is no longer runnable (canceled while queued), leaving the worker
// free for the next job.
func (j *Job) begin(base context.Context) (context.Context, int, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return nil, 0, false
	}
	ctx, cancel := context.WithCancel(base)
	j.state = StateRunning
	j.started = time.Now().UTC()
	j.lastBeat = j.started
	j.stuck = false
	j.attempt++
	j.cancel = cancel
	if j.cancelRequested {
		// Cancel raced the pickup: run with an already-cancelled context so
		// the campaign aborts on its first check.
		cancel()
	}
	j.publishLocked()
	return ctx, j.attempt, true
}

// setTrace installs the job's trace identity (and, for locally born
// jobs, the live root span).
func (j *Job) setTrace(sc tracing.SpanContext, root *tracing.Span) {
	j.mu.Lock()
	j.trace = sc
	j.rootSpan = root
	j.mu.Unlock()
}

// TraceContext returns the job's root span context (zero when untraced).
func (j *Job) TraceContext() tracing.SpanContext {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// enqueuedAt returns the latest queue-entry time.
func (j *Job) enqueuedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.enqueued
}

// Attempts reports how many executions the job has begun, including
// attempts journaled before a restart.
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempt
}

// markStale cancels the current attempt of a running job whose heartbeat
// is older than timeout, reporting whether this call shot it down. The
// worker observes the cancellation, sees stuck set, and retries the
// attempt under the normal budget.
func (j *Job) markStale(timeout time.Duration) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || j.stuck || time.Since(j.lastBeat) < timeout {
		return false
	}
	j.stuck = true
	if j.cancel != nil {
		j.cancel()
	}
	return true
}

// staleAttempt reports whether the watchdog shot down the current attempt.
func (j *Job) staleAttempt() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stuck
}

// requeue returns a running job to the queued state for a retry attempt.
// It reports false when the job is no longer running (a cancel won the
// race and finished it).
func (j *Job) requeue() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		return false
	}
	if j.cancel != nil {
		j.cancel()
		j.cancel = nil
	}
	j.state = StateQueued
	j.started = time.Time{}
	j.enqueued = time.Now().UTC()
	j.phase, j.completed, j.total = "", 0, 0
	j.publishLocked()
	return true
}

// addUnit accumulates one checkpointed work unit for the next attempt's
// resume point. CheckpointFunc calls are serialized by contract and
// restore happens before any save of the same phase, so the underlying
// map is never accessed concurrently.
func (j *Job) addUnit(phase string, index, total int, unit []byte) {
	j.mu.Lock()
	if j.checkpoint == nil {
		j.checkpoint = core.NewCheckpoint()
	}
	cp := j.checkpoint
	j.mu.Unlock()
	cp.Add(phase, index, total, unit)
}

// resumePoint returns the accumulated checkpoint (nil when none).
func (j *Job) resumePoint() *core.Checkpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.checkpoint
}

// requestCancel asks the job to stop. A queued job cancels immediately; a
// running one has its context cancelled and reaches the canceled state
// when the campaign unwinds. Terminal jobs are unaffected. It reports
// whether this call itself finished the job (queued → canceled): the
// claim under mu lets exactly one caller conclude it, while running jobs
// reach their terminal state on the worker instead.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state == StateQueued:
		j.finishLocked(StateCanceled, nil, context.Canceled.Error(), false, time.Now().UTC())
		return true
	case j.state == StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return false
}

// CancelRequested reports whether a cancel was asked for while running.
func (j *Job) CancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelRequested
}

// finish moves the job to a terminal state reached at at.
func (j *Job) finish(state State, result []byte, errText string, cached bool, at time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishLocked(state, result, errText, cached, at)
}

func (j *Job) finishLocked(state State, result []byte, errText string, cached bool, at time.Time) {
	if j.state.Terminal() {
		return
	}
	if j.cancel != nil {
		// Release the context even on success/failure paths.
		j.cancel()
	}
	j.state = state
	j.result = result
	j.err = errText
	j.cached = cached
	j.finished = at
	j.phase = ""
	j.checkpoint = nil
	if j.rootSpan != nil {
		// The root span closes with the terminal transition. Recording
		// takes only the tracer's ring lock, never job or server locks, so
		// ending it under j.mu cannot deadlock.
		j.rootSpan.SetAttr(tracing.String("state", string(state)), tracing.Bool("cached", cached))
		if errText != "" {
			j.rootSpan.SetError(errors.New(errText))
		}
		j.rootSpan.End()
		j.rootSpan = nil
	}
	j.publishLocked()
	close(j.doneCh)
}
