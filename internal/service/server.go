package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sinet-io/sinet/internal/core"
	"github.com/sinet-io/sinet/internal/journal"
	"github.com/sinet-io/sinet/internal/netgraph"
	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/sim"
	"github.com/sinet-io/sinet/internal/tracing"
)

// Admission errors mapped to HTTP statuses by the handler layer.
var (
	// ErrDraining rejects new work during graceful shutdown (503).
	ErrDraining = errors.New("service: draining, not accepting new jobs")
	// ErrQueueFull is the backpressure signal for a saturated queue (429).
	ErrQueueFull = errors.New("service: job queue full")
)

// RunContext carries the execution hooks of one job attempt: progress
// reporting, checkpoint capture (each completed work unit is appended to
// the job journal), the resume point restored from an earlier attempt
// or an earlier process, and the server's geometry memo. It is the
// campaigns' own core.RunContext; Run sets its Shard from the spec. The
// zero value runs the campaign plain; none of the hooks parameterize
// results.
type RunContext = core.RunContext

// RunnerFunc executes a normalized spec. The default is Run; tests inject
// controllable fakes to exercise queueing, cancellation, retry and
// shutdown without simulating orbits.
type RunnerFunc func(ctx context.Context, spec *JobSpec, rc RunContext) (any, error)

// Config parameterizes a Server.
type Config struct {
	// Workers is the simulation worker-pool size (default GOMAXPROCS).
	// Each worker runs one campaign at a time; the campaign itself fans
	// out internally through sim.Phase.
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker
	// (default 64). A full queue rejects submissions with ErrQueueFull.
	QueueDepth int
	// CacheBytes is the result cache budget; <= 0 disables caching
	// entirely (every submission recomputes), the mode the golden smoke
	// comparison runs in.
	CacheBytes int64
	// Runner overrides the campaign executor (nil = Run).
	Runner RunnerFunc
	// Metrics, when non-nil, receives the serving telemetry (jobs,
	// queue, admission, cache, campaign durations) and is served at
	// GET /metrics. New also installs the orbit and sim instruments
	// into it — those hooks are process-global, so the registry of the
	// most recently created server observes propagation counters.
	// Nil runs fully uninstrumented: zero allocations on job paths.
	Metrics *obs.Registry
	// Logger, when non-nil, receives structured request and
	// job-lifecycle logs. Nil logs nothing.
	Logger *slog.Logger
	// Tracer, when non-nil, records the distributed-tracing timeline of
	// every job — admission, queue wait, attempts, campaign phases,
	// retries, replay — into its bounded ring buffer and exposes it at
	// GET /debug/traces and GET /v1/jobs/{id}/trace. Like Metrics it is
	// strictly observe-only: the acceptance test pins served bytes
	// identical with tracing on and off. Nil disables tracing.
	Tracer *tracing.Tracer
	// JournalPath, when non-empty, enables the durable job journal: every
	// submit/start/retry/terminal transition is appended and fsynced,
	// every checkpoint appended for the next fsync to cover, and New
	// replays the file to re-admit jobs a crashed process left incomplete
	// — under their original IDs, resuming from their last checkpoint.
	// Empty disables durability entirely.
	JournalPath string
	// JournalHook, when non-nil, is called before every journal write and
	// sync — the chaos-injection point (see internal/fault). A returned
	// error fails that append (counted, logged, never fatal to the job).
	JournalHook journal.Hook
	// JobDeadline bounds the wall time of one attempt; an attempt
	// exceeding it is cancelled and retried under the budget. 0 disables.
	JobDeadline time.Duration
	// MaxRetries is the retry budget for retryable attempt failures
	// (deadline, watchdog, panic, transient errors). 0 means an attempt
	// failure is final.
	MaxRetries int
	// RetryBackoff is the base of the exponential retry backoff
	// (default 1s, capped at 1 minute, deterministically jittered).
	RetryBackoff time.Duration
	// HeartbeatTimeout arms the staleness watchdog: a running attempt
	// reporting no progress for this long is shot down and retried. 0
	// disables the watchdog.
	HeartbeatTimeout time.Duration
	// RetryAfter is the pushback hint stamped on 429 (queue full) and 503
	// (draining) responses as the Retry-After header, rounded up to whole
	// seconds (default 1s). A cluster coordinator propagates the owning
	// worker's value instead of inventing its own.
	RetryAfter time.Duration
	// CacheFill, when non-nil, is consulted on a local cache miss before a
	// worker computes: it may return the result bytes for the key from
	// elsewhere (the cluster wires it to the key's ring owner). A hit
	// finishes the job with those bytes — content addressing makes them
	// identical to what the local run would have produced. Lookup-only
	// fills must never trigger remote computation, or two peers could
	// ping-pong a key forever.
	CacheFill func(ctx context.Context, key Key) ([]byte, bool)
}

// memoBudget bounds the server's geometry memo (core.Memo): about twice
// the working set of servebench's 13-shape cold-mix cycle, whose
// repeating geometry is ten grids, four plan entries, three routing
// packet entries and two topology summaries (~6.4 MB). With the samples
// of the trajectories its coverage and backhaul grids rotate, a cycle
// files 8.2 MB and evicts nothing.
const memoBudget = 12 << 20

// maxFinishedJobs bounds the terminal jobs a server keeps answering
// status and result requests for: once more are kept, the oldest
// finished job leaves the table and its ID answers 404. Queued and
// running jobs are never evicted. A client fetches a result right after
// its job finishes, and the bytes of an evicted done job stay in the
// result cache, so resubmitting its spec is a cache hit while they last.
const maxFinishedJobs = 1024

// maxStatusWait caps the wait a status request may ask for
// (GET /v1/jobs/{id}?wait=<duration>).
const maxStatusWait = 30 * time.Second

// Server is the campaign-serving engine: registry, bounded queue, worker
// pool, result cache and the HTTP API over them.
type Server struct {
	cfg     Config
	cache   *Cache
	memo    *core.Memo
	runner  RunnerFunc
	metrics *serverMetrics
	logger  *slog.Logger
	tracer  *tracing.Tracer
	reqSeq  atomic.Uint64

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string     // IDs of the terminal jobs in jobs, oldest first
	inflight map[Key]*Job // queued or running, by content key
	draining bool
	seq      uint64

	queue      chan *Job
	baseCtx    context.Context
	cancelBase context.CancelFunc
	wg         sync.WaitGroup

	journal      *journal.Journal
	closeJournal sync.Once

	// drained is closed when Shutdown returns, releasing every pending
	// status wait.
	drained  chan struct{}
	endDrain sync.Once

	simulations atomic.Uint64
	started     time.Time
}

// New builds and starts a server: its workers are consuming the queue when
// New returns. With a JournalPath configured it first replays the journal,
// truncating any torn tail, and re-admits every job the previous process
// left incomplete — so a restart after a crash picks campaigns back up
// from their last checkpoint. Stop it with Shutdown.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Runner == nil {
		cfg.Runner = Run
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		cache:      NewCache(cfg.CacheBytes),
		runner:     cfg.Runner,
		logger:     cfg.Logger,
		tracer:     cfg.Tracer,
		jobs:       map[string]*Job{},
		inflight:   map[Key]*Job{},
		queue:      make(chan *Job, cfg.QueueDepth),
		drained:    make(chan struct{}),
		baseCtx:    ctx,
		cancelBase: cancel,
		started:    time.Now().UTC(),
	}
	// Telemetry wires up before the workers start so no job can race the
	// registration; the orbit/sim hooks are process-global (see
	// Config.Metrics) and only observe, never perturb, simulations.
	s.metrics = newServerMetrics(cfg.Metrics, s)
	s.memo = core.NewMemo(memoBudget, cfg.Metrics)
	if cfg.Metrics != nil {
		orbit.SetMetrics(cfg.Metrics)
		sim.SetMetrics(cfg.Metrics)
		netgraph.SetMetrics(cfg.Metrics)
	}
	// Recovery runs before the workers start, so every re-admitted job is
	// queued (and the sequence counter restored) before any new traffic.
	if cfg.JournalPath != "" {
		jnl, recs, err := journal.Open(cfg.JournalPath, journal.Options{Hook: cfg.JournalHook})
		if err != nil {
			cancel()
			return nil, fmt.Errorf("service: open job journal: %w", err)
		}
		s.journal = jnl
		s.replay(recs)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	if cfg.HeartbeatTimeout > 0 {
		s.wg.Add(1)
		go s.watchdog()
	}
	return s, nil
}

// jobSeq parses the numeric sequence out of a "j%06d-<key>" job ID.
func jobSeq(id string) (uint64, bool) {
	if !strings.HasPrefix(id, "j") {
		return 0, false
	}
	dash := strings.IndexByte(id, '-')
	if dash < 0 {
		return 0, false
	}
	n, err := strconv.ParseUint(id[1:dash], 10, 64)
	return n, err == nil
}

// replay folds the journal's surviving records and re-admits every job
// that never reached a terminal state: same ID (clients polling across
// the restart keep working), the accumulated checkpoint as the resume
// point, and the attempt counter continuing where the dead process left
// off. Undecodable records are skipped — one corrupt entry must not take
// down recovery of the rest — and the ID sequence is restored past every
// journaled job so new IDs can never collide with replayed ones.
func (s *Server) replay(recs []journal.Record) {
	var replayStart time.Time
	if s.tracer != nil {
		replayStart = time.Now()
	}
	type pending struct {
		submit   journal.Record
		attempts int
		cp       *core.Checkpoint
		terminal bool
	}
	byID := map[string]*pending{}
	var order []string
	readmitted := 0
	for _, rec := range recs {
		if n, ok := jobSeq(rec.JobID); ok && n > s.seq {
			s.seq = n
		}
		p := byID[rec.JobID]
		if p == nil {
			if rec.Op != journal.OpSubmit {
				continue // orphan record (e.g. duplicate done after a crash): nothing to resume
			}
			byID[rec.JobID] = &pending{submit: rec}
			order = append(order, rec.JobID)
			continue
		}
		switch rec.Op {
		case journal.OpStart:
			if rec.Attempt > p.attempts {
				p.attempts = rec.Attempt
			}
		case journal.OpCheckpoint:
			if p.cp == nil {
				p.cp = core.NewCheckpoint()
			}
			p.cp.Add(rec.Phase, rec.Index, rec.Total, rec.Unit)
		case journal.OpDone, journal.OpFail, journal.OpCancel:
			p.terminal = true
		}
	}
	for _, id := range order {
		p := byID[id]
		if p.terminal {
			continue
		}
		spec := new(JobSpec)
		if err := json.Unmarshal(p.submit.Spec, spec); err != nil {
			s.logReplaySkip(id, err)
			continue
		}
		if err := spec.Normalize(); err != nil {
			s.logReplaySkip(id, err)
			continue
		}
		j := newJob(id, Key(p.submit.Key), spec)
		j.attempt = p.attempts
		j.checkpoint = p.cp
		// Rejoin the trace the job was born under: the original root span
		// died unrecorded with the old process, but restoring its context
		// parents every resumed attempt onto the same distributed timeline
		// (the export layer treats spans with absent parents as roots).
		if sc, ok := tracing.ParseTraceparent(p.submit.Trace); ok {
			j.setTrace(sc, nil)
		}
		select {
		case s.queue <- j:
		default:
			s.logReplaySkip(id, ErrQueueFull)
			continue
		}
		s.jobs[id] = j
		s.inflight[j.Key] = j
		readmitted++
		s.metrics.replayed.Inc()
		s.logJob(j, "job re-admitted from journal",
			slog.Int("attempts", p.attempts),
			slog.Int("checkpointed_units", p.cp.Len()))
		if s.tracer != nil {
			if sc := j.TraceContext(); sc.Valid() {
				now := time.Now()
				s.tracer.Record(sc, "job.resume", replayStart, now,
					tracing.Int("attempts", p.attempts),
					tracing.Int("checkpointed_units", p.cp.Len()))
			}
		}
	}
	if s.tracer != nil {
		s.tracer.Record(tracing.SpanContext{}, "journal.replay", replayStart, time.Now(),
			tracing.Int("records", len(recs)),
			tracing.Int("readmitted", readmitted))
	}
}

func (s *Server) logReplaySkip(id string, err error) {
	if s.logger != nil {
		s.logger.Warn("journal replay: skipping job", slog.String("job", id), slog.String("error", err.Error()))
	}
}

// journalAppend persists one record when the journal is enabled. Append
// errors degrade durability, never availability: they are counted and
// logged, and the job proceeds. Checkpoint records are written behind:
// the campaign does not wait for their fsync, because a checkpoint lost
// to a power failure costs only recomputation, never bytes. Every other
// record waits for its group commit, which also covers the checkpoints
// written before it.
func (s *Server) journalAppend(rec journal.Record) {
	if s.journal == nil {
		return
	}
	write := s.journal.Append
	if rec.Op == journal.OpCheckpoint {
		write = s.journal.AppendBehind
	}
	if err := write(rec); err != nil {
		if errors.Is(err, journal.ErrClosed) {
			return // shutdown race: the drain already closed the file
		}
		s.metrics.journalErrs.Inc()
		if s.logger != nil {
			s.logger.Warn("journal append failed",
				slog.String("op", string(rec.Op)),
				slog.String("job", rec.JobID),
				slog.String("error", err.Error()))
		}
	}
}

// watchdog periodically shoots down running attempts whose heartbeat
// (their latest progress report) has gone stale: the attempt's context
// is cancelled, the worker unwinds, and the attempt retries under the
// normal budget.
func (s *Server) watchdog() {
	defer s.wg.Done()
	interval := s.cfg.HeartbeatTimeout / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-tick.C:
			s.mu.Lock()
			jobs := make([]*Job, 0, len(s.jobs))
			for _, j := range s.jobs {
				jobs = append(jobs, j)
			}
			s.mu.Unlock()
			for _, j := range jobs {
				if j.markStale(s.cfg.HeartbeatTimeout) {
					s.metrics.stale.Inc()
					s.logJob(j, "job heartbeat stale, cancelling attempt")
				}
			}
		}
	}
}

// SubmitTraced admits one spec: it is normalized, keyed, deduped against
// in-flight identical jobs, answered from the cache when possible, and
// otherwise queued. deduped reports whether an existing in-flight job was
// returned instead of a new one. parent is the caller's span context
// (parsed from an incoming traceparent header; zero when there is none):
// with tracing on, a newly created job's root "job" span becomes its
// child — on a cluster this is what stitches the coordinator's
// proxy/shard spans and the worker's execution spans into one trace —
// and every admission outcome (queued, cache hit, dedup, draining, queue
// full, bad spec) is recorded as an "admission" span.
func (s *Server) SubmitTraced(spec *JobSpec, parent tracing.SpanContext) (job *Job, deduped bool, err error) {
	var admitStart time.Time
	if s.tracer != nil {
		admitStart = time.Now()
	}
	admit := func(under tracing.SpanContext, outcome string) {
		if s.tracer != nil {
			s.tracer.Record(under, "admission", admitStart, time.Now(),
				tracing.String("outcome", outcome))
		}
	}
	key, err := ConfigKey(spec)
	if err != nil {
		admit(parent, "bad_spec")
		return nil, false, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		admit(parent, "draining")
		return nil, false, ErrDraining
	}
	// Singleflight: identical submissions while one is queued or running
	// attach to that execution — N clients, one simulation.
	if existing, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		s.metrics.dedup.Inc()
		admit(existing.TraceContext(), "deduped")
		s.logJob(existing, "job deduped")
		return existing, true, nil
	}
	s.seq++
	id := fmt.Sprintf("j%06d-%s", s.seq, key.Short())
	j := newJob(id, key, spec)
	root := s.tracer.StartChild(parent, "job",
		tracing.String("job", id),
		tracing.String("kind", spec.Kind),
		tracing.String("key", key.Short()))
	j.setTrace(root.Context(), root)
	if data, ok := s.cache.Get(key); ok {
		// Content-addressed hit: the job is born terminal with the cached
		// bytes; no queue slot, no worker, no simulation — and no journal
		// record, since there is nothing to resume.
		admit(root.Context(), "cache_hit")
		j.finish(StateDone, data, "", true, time.Now().UTC())
		s.jobs[id] = j
		s.retireLocked(j)
		s.mu.Unlock()
		s.metrics.observeFinished(spec.Kind, StateDone, 0)
		s.logJob(j, "job served from cache", slog.Int("bytes", len(data)))
		return j, false, nil
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		// The never-ended root span is simply dropped — only the admission
		// outcome records the rejection.
		admit(parent, "queue_full")
		return nil, false, ErrQueueFull
	}
	s.jobs[id] = j
	s.inflight[key] = j
	s.mu.Unlock()
	admit(root.Context(), "queued")
	// The submit record carries the canonical spec, so a restarted daemon
	// can rebuild and re-run the exact campaign. Appended outside the
	// server lock: the fsync must not stall unrelated lookups.
	if s.journal != nil {
		if canonical, err := json.Marshal(spec); err == nil {
			s.journalAppend(journal.Record{Op: journal.OpSubmit, JobID: id, Key: string(key), Spec: canonical,
				Trace: root.Context().Traceparent()})
		}
	}
	s.logJob(j, "job queued")
	return j, false, nil
}

// logJob emits one job-lifecycle log line when logging is configured.
func (s *Server) logJob(j *Job, msg string, attrs ...slog.Attr) {
	if s.logger == nil {
		return
	}
	base := []slog.Attr{
		slog.String("job", j.ID),
		slog.String("kind", j.Spec.Kind),
		slog.String("key", j.Key.Short()),
	}
	if sc := j.TraceContext(); sc.Valid() {
		base = append(base, slog.String("trace", sc.TraceID.String()))
	}
	s.logger.LogAttrs(context.Background(), slog.LevelInfo, msg, append(base, attrs...)...)
}

// countJobs counts registered jobs in one state; the jobs-by-state
// gauges sample it at scrape time.
func (s *Server) countJobs(state State) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.State() == state {
			n++
		}
	}
	return n
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job by ID.
func (s *Server) Cancel(id string) (*Job, bool) {
	j, ok := s.Job(id)
	if !ok {
		return nil, false
	}
	s.logJob(j, "job cancel requested")
	s.cancelQueued(j)
	return j, true
}

// cancelQueued is the cancel Cancel, the drain and a woken backoff share:
// requestCancel claims a job no worker holds, concluded here, while a
// running job unwinds and is concluded by its worker.
func (s *Server) cancelQueued(j *Job) {
	if j.requestCancel() {
		s.conclude(j, nil, 0, StateCanceled, nil, context.Canceled.Error(), false)
	}
	s.forgetInflight(j)
}

// retireLocked files a terminal job as the newest finished one and drops
// the oldest finished job from the table once more than maxFinishedJobs
// are kept. s.mu must be held.
func (s *Server) retireLocked(j *Job) {
	s.finished = append(s.finished, j.ID)
	if len(s.finished) > maxFinishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// forgetInflight drops the job from the dedup index once it can no longer
// satisfy new submissions (terminal, or cancel requested — attaching new
// clients to a dying job would hand them a canceled result they never
// asked to share).
func (s *Server) forgetInflight(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.inflight[j.Key]; ok && cur == j {
		delete(s.inflight, j.Key)
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j, ok := <-s.queue:
			if !ok {
				return
			}
			s.execute(j)
		}
	}
}

func (s *Server) execute(j *Job) {
	ctx, attempt, ok := j.begin(s.baseCtx)
	if !ok {
		s.forgetInflight(j)
		return
	}
	// Trace the attempt: a retrospective queue.wait span covering queue
	// entry to this pickup, then a live "attempt" span injected into ctx
	// so campaign phases (recorded by sim.Phase) nest under it.
	if s.tracer != nil {
		if sc := j.TraceContext(); sc.Valid() {
			s.tracer.Record(sc, "queue.wait", j.enqueuedAt(), time.Now(),
				tracing.Int("attempt", attempt))
			ctx = tracing.NewContext(ctx, s.tracer, sc)
		}
	}
	ctx, att := tracing.Start(ctx, "attempt", tracing.Int("attempt", attempt))
	cancelAttempt := func() {}
	if s.cfg.JobDeadline > 0 {
		ctx, cancelAttempt = context.WithTimeout(ctx, s.cfg.JobDeadline)
	}
	// Peer fill: before paying for a simulation, ask the configured
	// remote cache (the key's ring owner in a cluster). A hit finishes
	// the job with the peer's bytes — equal keys mean equal bytes, so
	// this is indistinguishable from computing locally, minus the work.
	if s.cfg.CacheFill != nil {
		var fillStart time.Time
		if att != nil {
			fillStart = time.Now()
		}
		data, hit := s.cfg.CacheFill(ctx, j.Key)
		if att != nil {
			s.tracer.Record(att.Context(), "cache.peer_fill", fillStart, time.Now(),
				tracing.Bool("hit", hit), tracing.Int("bytes", len(data)))
		}
		if hit {
			cancelAttempt()
			s.metrics.peerFills.Inc()
			s.conclude(j, att, attempt, StateDone, data, "", true)
			return
		}
	}
	s.simulations.Add(1)
	s.metrics.simulations.Inc()
	s.journalAppend(journal.Record{Op: journal.OpStart, JobID: j.ID, Attempt: attempt})
	s.logJob(j, "job running", slog.Int("attempt", attempt))

	res, err := s.runAttempt(ctx, j)
	cancelAttempt()
	if err == nil {
		data, merr := MarshalResult(res)
		if merr != nil {
			att.SetError(merr)
			s.conclude(j, att, attempt, StateFailed, nil, fmt.Sprintf("serialize result: %v", merr), false)
			return
		}
		s.conclude(j, att, attempt, StateDone, data, "", false)
		return
	}

	switch {
	case errors.Is(err, context.Canceled) && (j.CancelRequested() || s.baseCtx.Err() != nil):
		// A user cancel or the drain: terminal, never retried.
		s.conclude(j, att, attempt, StateCanceled, nil, context.Canceled.Error(), false)
		return
	case j.staleAttempt():
		att.SetAttr(tracing.Bool("heartbeat_stale", true))
		err = fmt.Errorf("service: attempt %d heartbeat stale for %v: %w", attempt, s.cfg.HeartbeatTimeout, err)
	case errors.Is(err, context.DeadlineExceeded):
		att.SetAttr(tracing.Bool("deadline_exceeded", true))
		err = fmt.Errorf("service: attempt %d exceeded the %v job deadline: %w", attempt, s.cfg.JobDeadline, err)
	}
	att.SetError(err)
	if !retryable(err) || attempt > s.cfg.MaxRetries {
		msg := err.Error()
		if retryable(err) && s.cfg.MaxRetries > 0 {
			msg = fmt.Sprintf("%s (retry budget of %d exhausted)", msg, s.cfg.MaxRetries)
		}
		s.conclude(j, att, attempt, StateFailed, nil, msg, false)
		return
	}
	att.SetAttr(tracing.String("outcome", "retry"))
	att.End()
	s.scheduleRetry(j, attempt, err)
}

// runAttempt executes one attempt with panic isolation: a panicking
// campaign must not take down the worker goroutine (and with it the
// daemon); the panic becomes a retryable attempt error instead.
func (s *Server) runAttempt(ctx context.Context, j *Job) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: runner panicked: %v", r)
		}
	}()
	rc := RunContext{
		Progress: j.setProgress,
		Checkpoint: func(phase string, index, total int, unit []byte) {
			j.addUnit(phase, index, total, unit)
			s.journalAppend(journal.Record{Op: journal.OpCheckpoint, JobID: j.ID, Phase: phase, Index: index, Total: total, Unit: unit})
		},
		Resume: j.resumePoint(),
		Memo:   s.memo,
	}
	return s.runner(ctx, j.Spec, rc)
}

// retryable classifies an attempt error: spec and config validation
// failures can never succeed on a retry; everything else — deadline,
// watchdog shot, panic, transient runner faults — is worth the budget.
func retryable(err error) bool {
	return !errors.Is(err, ErrBadSpec) && !errors.Is(err, core.ErrInvalidConfig)
}

// maxRetryBackoff caps the exponential retry backoff.
const maxRetryBackoff = time.Minute

// retryDelay computes the deterministic backoff before retry `attempt+1`:
// base·2^(attempt−1), capped, then jittered into [d/2, d) by the named
// stream "retry/<key>/<attempt>" — so a restarted daemon schedules the
// identical delay and adding other RNG consumers never perturbs it.
func retryDelay(key Key, attempt int, base time.Duration) time.Duration {
	if base <= 0 {
		base = time.Second
	}
	d := base
	for i := 1; i < attempt && d < maxRetryBackoff; i++ {
		d *= 2
	}
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	rng := sim.NewRNG(0, fmt.Sprintf("retry/%s/%d", key.Short(), attempt))
	half := d / 2
	return half + time.Duration(rng.Float64()*float64(d-half))
}

// conclude is the one terminal transition of a job: it closes the
// attempt span (nil when no attempt ran) with its outcome, caches done
// bytes, journals the terminal record, counts and logs the job, and only
// then finishes it, drops it from the dedup index and files it among the
// finished jobs, so a client that sees the terminal state also finds it
// counted and logged. Only a job a worker computed samples
// sinet_campaign_seconds, over its final attempt's pickup to terminal
// state. A job cancelQueued concludes is already finished by
// requestCancel's claim; finish is idempotent.
func (s *Server) conclude(j *Job, att *tracing.Span, attempt int, state State, data []byte, msg string, cached bool) {
	rec := journal.Record{Op: journal.OpDone, JobID: j.ID, Attempt: attempt}
	outcome := []tracing.Attr{tracing.String("outcome", string(state))}
	switch {
	case cached:
		outcome[0] = tracing.String("outcome", "peer_fill")
	case state == StateDone:
		outcome = append(outcome, tracing.Int("bytes", len(data)))
	case state == StateFailed:
		rec.Op, rec.Err = journal.OpFail, msg
	default:
		rec.Op = journal.OpCancel
	}
	att.SetAttr(outcome...)
	att.End()
	if state == StateDone {
		s.cache.Put(j.Key, data)
	}
	s.journalAppend(rec)
	at := time.Now().UTC()
	took := j.runtime(at)
	var seconds float64
	if !cached {
		seconds = took.Seconds()
	}
	s.metrics.observeFinished(j.Spec.Kind, state, seconds)
	s.logJob(j, "job finished",
		slog.String("state", string(state)),
		slog.Duration("took", took),
		slog.Bool("cached", cached),
		slog.String("error", msg))
	j.finish(state, data, msg, cached, at)
	s.forgetInflight(j)
	s.mu.Lock()
	s.retireLocked(j)
	s.mu.Unlock()
}

// scheduleRetry re-queues a job after a retryable attempt failure. The
// backoff waits on a goroutine the drain waits for: when the timer fires
// the job goes back on the queue and the wait is recorded as a
// retry.backoff span; when the server context is cancelled first, the
// job is canceled.
func (s *Server) scheduleRetry(j *Job, attempt int, cause error) {
	if !j.requeue() {
		s.forgetInflight(j)
		return
	}
	s.metrics.retries.Inc()
	s.journalAppend(journal.Record{Op: journal.OpRetry, JobID: j.ID, Attempt: attempt, Err: cause.Error()})
	start := time.Now()
	delay := retryDelay(j.Key, attempt, s.cfg.RetryBackoff)
	s.logJob(j, "job retry scheduled",
		slog.Int("attempt", attempt),
		slog.Duration("backoff", delay),
		slog.String("cause", cause.Error()))
	// The worker calling this is itself counted in wg, so the Add cannot
	// race a Wait that has already seen zero.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-timer.C:
			if !s.enqueueRetry(j) || s.tracer == nil {
				return
			}
			if sc := j.TraceContext(); sc.Valid() {
				s.tracer.Record(sc, "retry.backoff", start, time.Now(),
					tracing.Int("attempt", attempt),
					tracing.String("cause", cause.Error()))
			}
		case <-s.baseCtx.Done():
			s.cancelQueued(j)
		}
	}()
}

// enqueueRetry moves a backoff-expired job back onto the queue, reporting
// whether it did.
func (s *Server) enqueueRetry(j *Job) bool {
	if s.Draining() {
		s.cancelQueued(j)
		return false
	}
	if j.State() != StateQueued {
		return false // canceled while waiting out the backoff
	}
	select {
	case s.queue <- j:
		s.logJob(j, "job requeued for retry")
		return true
	default:
		s.conclude(j, nil, 0, StateFailed, nil, "service: queue full on retry", false)
		return false
	}
}

// Shutdown drains the server gracefully: new submissions are refused with
// ErrDraining (503), every queued job (including jobs waiting out a retry
// backoff) is canceled, running campaigns have their contexts cancelled so
// they unwind with context.Canceled, and the workers are awaited up to
// ctx's deadline. On a clean drain the journal is synced and closed.
// When it returns, every pending status wait returns too. Shutdown is
// idempotent: a second call re-waits for the workers and returns cleanly.
func (s *Server) Shutdown(ctx context.Context) error {
	defer s.endDrain.Do(func() { close(s.drained) })
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	s.mu.Unlock()
	if first && s.logger != nil {
		s.logger.Info("draining", slog.Int("queued", len(s.queue)))
	}
	// Cancelling the base context also wakes every job waiting out a
	// retry backoff, which cancels itself (see scheduleRetry).
	s.cancelBase()
	// Drain whatever is still queued; workers racing this loop mark the
	// same jobs canceled through the already-dead base context, so both
	// paths converge on the canceled terminal state.
	for {
		select {
		case j := <-s.queue:
			s.cancelQueued(j)
			continue
		default:
		}
		break
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		if s.journal != nil {
			s.closeJournal.Do(func() {
				if err := s.journal.Close(); err != nil && s.logger != nil {
					s.logger.Warn("journal close failed", slog.String("error", err.Error()))
				}
			})
		}
		if first && s.logger != nil {
			s.logger.Info("drained")
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Stats is the /v1/stats payload.
type Stats struct {
	Uptime        string        `json:"uptime"`
	Workers       int           `json:"workers"`
	QueueDepth    int           `json:"queue_depth"`
	QueueCapacity int           `json:"queue_capacity"`
	Draining      bool          `json:"draining"`
	Simulations   uint64        `json:"simulations"`
	JobsByState   map[State]int `json:"jobs_by_state"`
	Cache         CacheStats    `json:"cache"`
}

// Stats snapshots serving health: queue depth, jobs by state, cache hit
// rate, simulations executed.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	byState := make(map[State]int, 5)
	for _, j := range s.jobs {
		byState[j.State()]++
	}
	draining := s.draining
	s.mu.Unlock()
	return Stats{
		Uptime:        time.Since(s.started).Round(time.Millisecond).String(),
		Workers:       s.cfg.Workers,
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		Draining:      draining,
		Simulations:   s.simulations.Load(),
		JobsByState:   byState,
		Cache:         s.cache.Stats(),
	}
}

// --- HTTP layer ---------------------------------------------------------

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs             submit a JobSpec        → 202 JobView (+deduped)
//	GET    /v1/jobs/{id}        job status              → 200 JobView
//	                            (?wait=<duration>: once terminal, or after the wait)
//	GET    /v1/jobs/{id}/result terminal result bytes   → 200 raw JSON
//	DELETE /v1/jobs/{id}        cancel                  → 202 JobView
//	GET    /v1/jobs/{id}/events SSE progress stream     → text/event-stream
//	GET    /v1/stats            serving health          → 200 Stats
//	GET    /v1/cache            peer cache lookup       → 200 raw JSON | 404
//	GET    /healthz             liveness                → 200 always
//	GET    /readyz              readiness               → 200 | 503 draining
//	GET    /metrics             Prometheus scrape       → (when Config.Metrics is set)
//	GET    /v1/jobs/{id}/trace  assembled job timeline  → (when Config.Tracer is set)
//	GET    /debug/traces        recent root spans       → (when Config.Tracer is set)
//
// Every request carries an X-Request-Id: the client's own, when it sent
// one, else a generated process-unique ID — echoed on the response so
// client-visible IDs match the request log lines. With Config.Logger
// set, every request is logged with that ID, method, path, status,
// duration, and the incoming traceparent's trace ID when present.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/cache", s.handleCacheLookup)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.cfg.Metrics != nil {
		mux.Handle("GET /metrics", s.cfg.Metrics.Handler())
	}
	if s.tracer != nil {
		mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
		mux.HandleFunc("GET /debug/traces", s.handleDebugTraces)
	}
	return s.instrument(mux)
}

// statusWriter captures the response status for the request log while
// passing Flush through so SSE streaming keeps working behind it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps next with request correlation and logging. Every
// request gets an X-Request-Id — the client's own when it sent one, a
// process-unique "r%06d" otherwise — echoed on the response header, so
// the ID a client sees matches the journal and log lines (and a cluster
// coordinator's generated ID survives the hop to the owning worker).
// With logging configured each request is also logged; scrape and
// liveness polls log at Debug so an Info-level daemon isn't drowned by
// its own monitoring.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = fmt.Sprintf("r%06d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-Id", id)
		if s.logger == nil {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		level := slog.LevelInfo
		if r.URL.Path == "/healthz" || r.URL.Path == "/readyz" || r.URL.Path == "/metrics" {
			level = slog.LevelDebug
		}
		attrs := []slog.Attr{
			slog.String("req", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("took", time.Since(start)),
		}
		if sc := tracing.FromRequest(r); sc.Valid() {
			attrs = append(attrs, slog.String("trace", sc.TraceID.String()))
		}
		s.logger.LogAttrs(r.Context(), level, "request", attrs...)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// SubmitResponse is the POST /v1/jobs payload: the job plus whether the
// submission attached to an existing in-flight execution.
type SubmitResponse struct {
	JobView
	Deduped bool `json:"deduped"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.metrics.admission[http.StatusBadRequest].Inc()
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode spec: %w", err))
		return
	}
	job, deduped, err := s.SubmitTraced(&spec, tracing.FromRequest(r))
	code := http.StatusAccepted
	switch {
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", s.retryAfterValue())
	case errors.Is(err, ErrQueueFull):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", s.retryAfterValue())
	case errors.Is(err, ErrBadSpec):
		code = http.StatusBadRequest
	case err != nil:
		code = http.StatusInternalServerError
	}
	s.metrics.admission[code].Inc()
	if err != nil {
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{JobView: job.View(), Deduped: deduped})
}

// handleStatus answers a job's view. With ?wait=<duration> it is a long
// poll: it answers as soon as the job is terminal, at once if it already
// is, and otherwise once the wait (capped at maxStatusWait) elapses, the
// request ends or the server's drain ends, whichever comes first. A
// cluster coordinator learns a shard's completion this way.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	var wait time.Duration
	if q := r.URL.Query(); q.Has("wait") {
		d, err := time.ParseDuration(q.Get("wait"))
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("wait must be a non-negative duration, got %q", q.Get("wait")))
			return
		}
		wait = min(d, maxStatusWait)
	}
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	if wait > 0 {
		timer := time.NewTimer(wait)
		select {
		case <-job.Done():
		case <-timer.C:
		case <-r.Context().Done():
		case <-s.drained:
		}
		timer.Stop()
	}
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	data, done := job.Result()
	if !done {
		view := job.View()
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": "job has no result", "state": view.State, "job_error": view.Error,
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	writeJSON(w, http.StatusAccepted, job.View())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	writeEvent := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	ch, unsubscribe := job.Subscribe()
	defer unsubscribe()
	s.metrics.sse.Inc()
	defer s.metrics.sse.Dec()
	// Initial snapshot so late subscribers see where the job stands.
	first := job.event()
	if !writeEvent(first) || first.State.Terminal() {
		return
	}
	for {
		select {
		case ev := <-ch:
			if !writeEvent(ev) {
				return
			}
			if ev.State.Terminal() {
				return
			}
		case <-job.Done():
			// Drain any buffered events, then emit the terminal snapshot:
			// dropped intermediate events never cost the client the ending.
			for {
				select {
				case ev := <-ch:
					if !writeEvent(ev) {
						return
					}
					if ev.State.Terminal() {
						return
					}
					continue
				default:
				}
				break
			}
			writeEvent(job.event())
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleHealthz is liveness, deliberately decoupled from backpressure: a
// saturated queue is a healthy server saying "not now", so /healthz stays
// 200 under load (and during drain, where it reports the phase).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

// handleReadyz is readiness: unlike liveness it goes 503 the moment the
// drain begins, so coordinators and load balancers stop routing new work
// to a worker that is shutting down while its in-flight jobs finish.
// (A daemon still replaying its journal isn't serving this handler yet —
// cmd/sinetd answers 503 from a boot handler during replay.)
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", s.retryAfterValue())
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleCacheLookup answers peer cache probes: the raw cached result
// bytes for a content key, or 404. Strictly lookup-only — a miss never
// triggers computation, which is what keeps cluster peer fills
// (Config.CacheFill → this endpoint on the ring owner) cycle-free. The
// key travels as a query parameter because shard keys contain slashes.
func (s *Server) handleCacheLookup(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing key parameter"))
		return
	}
	data, ok := s.cache.Get(Key(key))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("not cached"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// retryAfterValue renders Config.RetryAfter as a whole-seconds header
// value, rounding up so the hint never undershoots the configured wait.
func (s *Server) retryAfterValue() string {
	d := s.cfg.RetryAfter
	if d <= 0 {
		d = time.Second
	}
	secs := int64((d + time.Second - 1) / time.Second)
	return strconv.FormatInt(secs, 10)
}
