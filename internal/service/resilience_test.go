package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/core"
	"github.com/sinet-io/sinet/internal/fault"
	"github.com/sinet-io/sinet/internal/journal"
	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/sim"
	"github.com/sinet-io/sinet/internal/tracing"
)

// flakyRunner fails its first `failures` attempts with err, then returns
// result. It records every attempt.
type flakyRunner struct {
	mu       sync.Mutex
	calls    int
	failures int
	err      error
	result   any
}

func (f *flakyRunner) run(context.Context, *JobSpec, RunContext) (any, error) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.mu.Unlock()
	if n <= f.failures {
		return nil, f.err
	}
	return f.result, nil
}

func (f *flakyRunner) attempts() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func TestRetrySucceedsAfterTransientFailure(t *testing.T) {
	fr := &flakyRunner{failures: 1, err: errors.New("transient fault"), result: "ok"}
	env := newTestEnv(t, Config{
		Workers: 1, QueueDepth: 4,
		MaxRetries: 2, RetryBackoff: time.Millisecond,
		Runner: fr.run,
	})
	r, code := env.submit(t, coverageSpec(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	v := env.awaitState(t, r.ID, StateDone)
	if v.Error != "" {
		t.Fatalf("done job carries error %q", v.Error)
	}
	if got := fr.attempts(); got != 2 {
		t.Fatalf("runner ran %d times, want 2 (one failure, one success)", got)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	reg := obs.New()
	t.Cleanup(func() { orbit.SetMetrics(nil); sim.SetMetrics(nil) })
	fr := &flakyRunner{failures: 100, err: errors.New("persistent fault")}
	env := newTestEnv(t, Config{
		Workers: 1, QueueDepth: 4,
		MaxRetries: 2, RetryBackoff: time.Millisecond,
		Runner: fr.run, Metrics: reg,
	})
	r, _ := env.submit(t, coverageSpec(1))
	v := env.awaitState(t, r.ID, StateFailed)
	if !strings.Contains(v.Error, "retry budget of 2 exhausted") {
		t.Fatalf("error %q does not mention the exhausted budget", v.Error)
	}
	if got := fr.attempts(); got != 3 {
		t.Fatalf("runner ran %d times, want 3 (budget 2 = 3 attempts)", got)
	}
	if scrape := env.scrape(t); !strings.Contains(scrape, "sinet_job_retries_total 2") {
		t.Fatalf("scrape missing sinet_job_retries_total 2:\n%s", grepMetric(scrape, "sinet_job_retries"))
	}
}

func TestBadSpecErrorNotRetried(t *testing.T) {
	fr := &flakyRunner{failures: 100, err: fmt.Errorf("kind rejected: %w", ErrBadSpec)}
	env := newTestEnv(t, Config{
		Workers: 1, QueueDepth: 4,
		MaxRetries: 3, RetryBackoff: time.Millisecond,
		Runner: fr.run,
	})
	r, _ := env.submit(t, coverageSpec(1))
	v := env.awaitState(t, r.ID, StateFailed)
	if strings.Contains(v.Error, "retry budget") {
		t.Fatalf("non-retryable failure reported as budget exhaustion: %q", v.Error)
	}
	if got := fr.attempts(); got != 1 {
		t.Fatalf("non-retryable error ran %d times, want 1", got)
	}
}

func TestJobDeadlineBoundsAttempts(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	runner := func(ctx context.Context, _ *JobSpec, _ RunContext) (any, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		<-ctx.Done() // never heartbeats, never finishes: only the deadline ends it
		return nil, ctx.Err()
	}
	env := newTestEnv(t, Config{
		Workers: 1, QueueDepth: 4,
		JobDeadline: 30 * time.Millisecond,
		MaxRetries:  1, RetryBackoff: time.Millisecond,
		Runner: runner,
	})
	r, _ := env.submit(t, coverageSpec(1))
	v := env.awaitState(t, r.ID, StateFailed)
	if !strings.Contains(v.Error, "job deadline") {
		t.Fatalf("error %q does not mention the job deadline", v.Error)
	}
	mu.Lock()
	got := calls
	mu.Unlock()
	if got != 2 {
		t.Fatalf("deadline-bound job ran %d attempts, want 2", got)
	}
}

func TestWatchdogRetriesStalledAttempt(t *testing.T) {
	reg := obs.New()
	t.Cleanup(func() { orbit.SetMetrics(nil); sim.SetMetrics(nil) })
	var mu sync.Mutex
	calls := 0
	runner := func(ctx context.Context, _ *JobSpec, _ RunContext) (any, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			<-ctx.Done() // silent: no progress, no checkpoints — the watchdog must shoot it
			return nil, ctx.Err()
		}
		return "recovered", nil
	}
	env := newTestEnv(t, Config{
		Workers: 1, QueueDepth: 4,
		HeartbeatTimeout: 40 * time.Millisecond,
		MaxRetries:       2, RetryBackoff: time.Millisecond,
		Runner: runner, Metrics: reg,
	})
	r, _ := env.submit(t, coverageSpec(1))
	env.awaitState(t, r.ID, StateDone)
	mu.Lock()
	got := calls
	mu.Unlock()
	if got != 2 {
		t.Fatalf("stalled job ran %d attempts, want 2", got)
	}
	if scrape := env.scrape(t); !strings.Contains(scrape, "sinet_job_heartbeat_stale_total 1") {
		t.Fatalf("scrape missing sinet_job_heartbeat_stale_total 1:\n%s", grepMetric(scrape, "heartbeat_stale"))
	}
}

// TestPanicIsolatedAndRetried wires the chaos harness's panic injector
// into a campaign runner: the first attempt panics mid-"campaign", the
// worker survives, and the retry completes the job.
func TestPanicIsolatedAndRetried(t *testing.T) {
	boom := fault.PanicNth(1)
	var mu sync.Mutex
	calls := 0
	runner := func(context.Context, *JobSpec, RunContext) (any, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		boom()
		return "survived", nil
	}
	env := newTestEnv(t, Config{
		Workers: 1, QueueDepth: 4,
		MaxRetries: 1, RetryBackoff: time.Millisecond,
		Runner: runner,
	})
	r, _ := env.submit(t, coverageSpec(1))
	v := env.awaitState(t, r.ID, StateDone)
	if v.Error != "" {
		t.Fatalf("recovered job carries error %q", v.Error)
	}
	mu.Lock()
	got := calls
	mu.Unlock()
	if got != 2 {
		t.Fatalf("panicking job ran %d attempts, want 2", got)
	}
}

func TestPanicExhaustsBudgetWithoutKillingWorkers(t *testing.T) {
	runner := func(context.Context, *JobSpec, RunContext) (any, error) {
		panic("always")
	}
	env := newTestEnv(t, Config{
		Workers: 1, QueueDepth: 4,
		MaxRetries: 1, RetryBackoff: time.Millisecond,
		Runner: runner,
	})
	r, _ := env.submit(t, coverageSpec(1))
	v := env.awaitState(t, r.ID, StateFailed)
	if !strings.Contains(v.Error, "panicked") {
		t.Fatalf("error %q does not surface the panic", v.Error)
	}
	// The lone worker must still be alive to serve the next job.
	fr := &flakyRunner{result: "next"}
	env.svc.runner = fr.run
	r2, code := env.submit(t, coverageSpec(2))
	if code != http.StatusAccepted {
		t.Fatalf("post-panic submit: %d", code)
	}
	env.awaitState(t, r2.ID, StateDone)
}

func TestCancelWhileWaitingOutBackoff(t *testing.T) {
	fr := &flakyRunner{failures: 100, err: errors.New("always failing")}
	env := newTestEnv(t, Config{
		Workers: 1, QueueDepth: 4,
		MaxRetries: 10, RetryBackoff: 30 * time.Second, // parked in backoff long enough to cancel
		Runner: fr.run,
	})
	r, _ := env.submit(t, coverageSpec(1))
	j, ok := env.svc.Job(r.ID)
	if !ok {
		t.Fatal("job not registered")
	}
	// Wait until the first attempt failed and the job is parked in backoff.
	deadline := time.Now().Add(5 * time.Second)
	for j.Attempts() < 1 || j.State() != StateQueued {
		if time.Now().After(deadline) {
			t.Fatalf("job never parked in backoff (state %s, attempts %d)", j.State(), j.Attempts())
		}
		time.Sleep(2 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, env.ts.URL+"/v1/jobs/"+r.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	env.awaitState(t, r.ID, StateCanceled)
}

func TestShutdownIdempotent(t *testing.T) {
	gate := newGatedRunner("held")
	svc, err := New(Config{
		Workers: 1, QueueDepth: 4,
		JournalPath: filepath.Join(t.TempDir(), "jobs.journal"),
		Runner:      gate.run,
	})
	if err != nil {
		t.Fatal(err)
	}
	var spec JobSpec
	if err := json.Unmarshal([]byte(coverageSpec(1)), &spec); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.SubmitTraced(&spec, tracing.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if _, _, err := svc.SubmitTraced(&spec, tracing.SpanContext{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after shutdown: %v, want ErrDraining", err)
	}
}

// TestJournalRecoveryReadmitsIncompleteJobs hand-writes a journal the way
// a crashed daemon would have left it — one job mid-campaign with a saved
// checkpoint, one job already done — and verifies New replays it: the
// incomplete job restarts under its original ID with its checkpoint as the
// resume point, the finished one stays dead, and the ID sequence continues
// past every journaled job.
func TestJournalRecoveryReadmitsIncompleteJobs(t *testing.T) {
	reg := obs.New()
	t.Cleanup(func() { orbit.SetMetrics(nil); sim.SetMetrics(nil) })
	path := filepath.Join(t.TempDir(), "jobs.journal")

	mkSpec := func(days int) (*JobSpec, Key, []byte) {
		var spec JobSpec
		if err := json.Unmarshal([]byte(coverageSpec(days)), &spec); err != nil {
			t.Fatal(err)
		}
		key, err := ConfigKey(&spec)
		if err != nil {
			t.Fatal(err)
		}
		canonical, err := json.Marshal(&spec)
		if err != nil {
			t.Fatal(err)
		}
		return &spec, key, canonical
	}
	_, key1, spec1 := mkSpec(1)
	_, key2, spec2 := mkSpec(2)
	id1 := fmt.Sprintf("j%06d-%s", 7, key1.Short())
	id2 := fmt.Sprintf("j%06d-%s", 9, key2.Short())
	unit := []byte(`{"LatitudeDeg":0,"Passes":3}`)

	jnl, recs, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	for _, rec := range []journal.Record{
		{Op: journal.OpSubmit, JobID: id1, Key: string(key1), Spec: spec1},
		{Op: journal.OpStart, JobID: id1, Attempt: 1},
		{Op: journal.OpCheckpoint, JobID: id1, Phase: "latitudes", Index: 0, Total: 1, Unit: unit},
		{Op: journal.OpSubmit, JobID: id2, Key: string(key2), Spec: spec2},
		{Op: journal.OpStart, JobID: id2, Attempt: 1},
		{Op: journal.OpDone, JobID: id2, Attempt: 1},
	} {
		if err := jnl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var resumed *core.Checkpoint
	runner := func(_ context.Context, _ *JobSpec, rc RunContext) (any, error) {
		mu.Lock()
		resumed = rc.Resume
		mu.Unlock()
		return "recovered result", nil
	}
	env := newTestEnv(t, Config{
		Workers: 1, QueueDepth: 4,
		JournalPath: path, Runner: runner, Metrics: reg,
	})

	// The replayed job completes under its pre-crash ID.
	env.awaitState(t, id1, StateDone)
	j, ok := env.svc.Job(id1)
	if !ok {
		t.Fatalf("replayed job %s not registered", id1)
	}
	if got := j.Attempts(); got != 2 {
		t.Fatalf("replayed job attempts = %d, want 2 (1 journaled + 1 live)", got)
	}
	mu.Lock()
	cp := resumed
	mu.Unlock()
	if cp == nil || cp.Len() != 1 {
		t.Fatalf("runner saw resume checkpoint %v, want the 1 journaled unit", cp)
	}
	if ps := cp.Phases["latitudes"]; ps == nil || string(ps.Units[0]) != string(unit) {
		t.Fatalf("resume checkpoint lost the journaled unit: %+v", cp.Phases)
	}
	// The terminal job stays dead.
	if _, ok := env.svc.Job(id2); ok {
		t.Fatalf("terminal job %s was re-admitted", id2)
	}
	// New IDs continue past every journaled sequence number.
	r, code := env.submit(t, coverageSpec(3))
	if code != http.StatusAccepted {
		t.Fatalf("post-recovery submit: %d", code)
	}
	if !strings.HasPrefix(r.ID, "j000010-") {
		t.Fatalf("post-recovery job ID %s, want sequence to resume at 10", r.ID)
	}
	if scrape := env.scrape(t); !strings.Contains(scrape, "sinet_journal_replayed_jobs_total 1") {
		t.Fatalf("scrape missing sinet_journal_replayed_jobs_total 1:\n%s", grepMetric(scrape, "replayed"))
	}
}

// TestJournalReplaySkipsSpecsAdmissionRejects replays a journal whose
// submit record holds a spec admission now refuses: a routing campaign
// snapshotting every 10µs, whose snapshot table alone would exhaust
// memory. The restarted server must neither re-admit the job nor run it,
// so the next submission is the first job its one worker runs.
func TestJournalReplaySkipsSpecsAdmissionRejects(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	spec := &JobSpec{Kind: KindRouting}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	spec.Routing.SnapshotStep = Duration(10 * time.Microsecond)
	canonical, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	key := Key(strings.Repeat("ab", 32))
	id := fmt.Sprintf("j%06d-%s", 1, key.Short())
	jnl, _, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append(journal.Record{Op: journal.OpSubmit, JobID: id, Key: string(key), Spec: canonical}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var ran []string
	runner := func(_ context.Context, spec *JobSpec, _ RunContext) (any, error) {
		mu.Lock()
		ran = append(ran, spec.Kind)
		mu.Unlock()
		return "ran", nil
	}
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 4, JournalPath: path, Runner: runner})
	if _, ok := env.svc.Job(id); ok {
		t.Fatalf("job %s was re-admitted from a spec admission rejects", id)
	}
	r, code := env.submit(t, coverageSpec(1))
	if code != http.StatusAccepted {
		t.Fatalf("post-replay submit: %d", code)
	}
	env.awaitState(t, r.ID, StateDone)
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 1 || ran[0] != KindCoverage {
		t.Fatalf("runner ran kinds %v, want only the coverage job submitted after replay", ran)
	}
}

// TestJournalWriteErrorsDegradeDurabilityNotAvailability injects chaos
// into every journal write and sync: jobs must still run to completion,
// with the failures counted on /metrics.
func TestJournalWriteErrorsDegradeDurabilityNotAvailability(t *testing.T) {
	reg := obs.New()
	t.Cleanup(func() { orbit.SetMetrics(nil); sim.SetMetrics(nil) })
	fr := &flakyRunner{result: "fine"}
	env := newTestEnv(t, Config{
		Workers: 1, QueueDepth: 4,
		JournalPath: filepath.Join(t.TempDir(), "jobs.journal"),
		JournalHook: fault.JournalChaos(1, "svc", 1), // every journal op fails
		Runner:      fr.run, Metrics: reg,
	})
	r, code := env.submit(t, coverageSpec(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	v := env.awaitState(t, r.ID, StateDone)
	if v.Error != "" {
		t.Fatalf("job failed under journal chaos: %q", v.Error)
	}
	scrape := env.scrape(t)
	if strings.Contains(scrape, "sinet_journal_errors_total 0") || !strings.Contains(scrape, "sinet_journal_errors_total") {
		t.Fatalf("journal chaos left sinet_journal_errors_total at zero:\n%s", grepMetric(scrape, "journal_errors"))
	}
}

// TestRetryDelayDeterministicAndBounded pins the backoff schedule: same
// key and attempt always produce the same delay, delays stay within
// [base/2 · 2^(n-1), base · 2^(n-1)] and saturate at the cap.
func TestRetryDelayDeterministicAndBounded(t *testing.T) {
	key := Key(strings.Repeat("ab", 32))
	base := 100 * time.Millisecond
	for attempt := 1; attempt <= 12; attempt++ {
		d1 := retryDelay(key, attempt, base)
		d2 := retryDelay(key, attempt, base)
		if d1 != d2 {
			t.Fatalf("attempt %d: delay not deterministic (%v vs %v)", attempt, d1, d2)
		}
		want := base << (attempt - 1)
		if want > maxRetryBackoff || want <= 0 {
			want = maxRetryBackoff
		}
		if d1 < want/2 || d1 >= want {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d1, want/2, want)
		}
	}
	if d := retryDelay(key, 1, 0); d < 500*time.Millisecond || d >= time.Second {
		t.Fatalf("zero base did not default to 1s: %v", d)
	}
}

// grepMetric filters a scrape to lines mentioning a substring, keeping
// failure output readable.
func grepMetric(scrape, substr string) string {
	var out []string
	for _, line := range strings.Split(scrape, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
