package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/journal"
	"github.com/sinet-io/sinet/internal/tracing"
)

// longPoll issues GET /v1/jobs/{id}?wait=<wait> on its own goroutine and
// returns the channel its view arrives on.
func longPoll(t *testing.T, base, id, wait string) <-chan JobView {
	t.Helper()
	out := make(chan JobView, 1)
	go func() {
		resp, err := http.Get(base + "/v1/jobs/" + id + "?wait=" + wait)
		if err != nil {
			t.Error(err)
			close(out)
			return
		}
		defer resp.Body.Close()
		var v JobView
		if resp.StatusCode != http.StatusOK {
			t.Errorf("long poll answered %d", resp.StatusCode)
		} else if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Error(err)
		}
		out <- v
		close(out)
	}()
	return out
}

// entered wraps a handler and signals each status request with a wait
// parameter as it reaches the server, so a test can act while the poll
// is pending instead of after a sleep.
func entered(h http.Handler) (http.Handler, <-chan struct{}) {
	ch := make(chan struct{}, 16) // more than any test issues, so no poll waits on it
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Has("wait") {
			ch <- struct{}{}
		}
		h.ServeHTTP(w, r)
	}), ch
}

// newWaitEnv is newTestEnv with the entered wrapper around the handler.
func newWaitEnv(t *testing.T, cfg Config) (*testEnv, <-chan struct{}) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, in := entered(svc.Handler())
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return &testEnv{svc: svc, ts: ts}, in
}

// TestStatusWaitReturnsOnceTerminal: a pending long poll answers with
// the terminal view of a job that finishes while it waits.
func TestStatusWaitReturnsOnceTerminal(t *testing.T) {
	gate := newGatedRunner("ok")
	env, in := newWaitEnv(t, Config{Workers: 1, QueueDepth: 4, Runner: gate.run})
	r, _ := env.submit(t, coverageSpec(1))
	env.awaitState(t, r.ID, StateRunning)
	got := longPoll(t, env.ts.URL, r.ID, "1m")
	<-in
	close(gate.release)
	if v := <-got; v.State != StateDone {
		t.Fatalf("long poll answered %s, want done", v.State)
	}
	// A terminal job answers at once, whatever the wait.
	if v := <-longPoll(t, env.ts.URL, r.ID, "1h"); v.State != StateDone {
		t.Fatalf("long poll of a done job answered %s", v.State)
	}
}

// TestStatusWaitElapses: once the wait passes, the poll answers with the
// job's current, non-terminal view.
func TestStatusWaitElapses(t *testing.T) {
	gate := newGatedRunner("ok")
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 4, Runner: gate.run})
	r, _ := env.submit(t, coverageSpec(1))
	env.awaitState(t, r.ID, StateRunning)
	if v := <-longPoll(t, env.ts.URL, r.ID, "1ms"); v.State != StateRunning {
		t.Fatalf("elapsed long poll answered %s, want running", v.State)
	}
	if v := <-longPoll(t, env.ts.URL, r.ID, "0s"); v.State != StateRunning {
		t.Fatalf("zero wait answered %s, want running", v.State)
	}
}

// TestStatusWaitRejectsBadDurations: a malformed, empty or negative wait
// is a 400; a plain status request and an unknown job behave as before.
func TestStatusWaitRejectsBadDurations(t *testing.T) {
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 4, Runner: newGatedRunner("ok").run})
	r, _ := env.submit(t, coverageSpec(1))
	for _, q := range []string{"?wait=abc", "?wait=", "?wait=-1s", "?wait=5"} {
		resp, err := http.Get(env.ts.URL + "/v1/jobs/" + r.ID + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s answered %d, want 400", q, resp.StatusCode)
		}
	}
	for path, want := range map[string]int{
		"/v1/jobs/" + r.ID:            http.StatusOK,
		"/v1/jobs/j999999-x?wait=1ms": http.StatusNotFound,
	} {
		resp, err := http.Get(env.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s answered %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestStatusWaitWokenByDrain: a drain cancels the running job, and the
// pending poll answers with its canceled state. A job whose runner never
// unwinds keeps the drain from finishing; when the drain gives up, the
// poll answers anyway, with the job's current view.
func TestStatusWaitWokenByDrain(t *testing.T) {
	t.Run("canceled", func(t *testing.T) {
		gate := newGatedRunner("ok")
		env, in := newWaitEnv(t, Config{Workers: 1, QueueDepth: 4, Runner: gate.run})
		r, _ := env.submit(t, coverageSpec(1))
		env.awaitState(t, r.ID, StateRunning)
		got := longPoll(t, env.ts.URL, r.ID, "1m")
		<-in
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := env.svc.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		if v := <-got; v.State != StateCanceled {
			t.Fatalf("long poll across the drain answered %s, want canceled", v.State)
		}
	})
	t.Run("stuck", func(t *testing.T) {
		unstick := make(chan struct{})
		var once sync.Once
		release := func() { once.Do(func() { close(unstick) }) }
		t.Cleanup(release)
		stuck := func(context.Context, *JobSpec, RunContext) (any, error) {
			<-unstick // ignores its context
			return "late", nil
		}
		env, in := newWaitEnv(t, Config{Workers: 1, QueueDepth: 4, Runner: stuck})
		r, _ := env.submit(t, coverageSpec(1))
		env.awaitState(t, r.ID, StateRunning)
		got := longPoll(t, env.ts.URL, r.ID, "1m")
		<-in
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if err := env.svc.Shutdown(ctx); err == nil {
			t.Fatal("drain finished with a runner that never unwinds")
		}
		if v := <-got; v.State != StateRunning {
			t.Fatalf("long poll after the abandoned drain answered %s, want running", v.State)
		}
		release()
	})
}

// TestFinishedJobsAreBounded: the table keeps maxFinishedJobs finished
// jobs. The next one evicts the oldest, whose ID then answers 404 while
// its result stays a cache hit; a running job is never evicted.
func TestFinishedJobsAreBounded(t *testing.T) {
	release := make(chan struct{})
	runner := func(ctx context.Context, spec *JobSpec, _ RunContext) (any, error) {
		if spec.Coverage.Days == 2 {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return "ok", nil
	}
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 4, CacheBytes: 1 << 20, Runner: runner})
	first, _ := env.submit(t, coverageSpec(1))
	env.awaitState(t, first.ID, StateDone)
	running, _ := env.submit(t, coverageSpec(2))
	env.awaitState(t, running.ID, StateRunning)
	var hits []*Job
	for i := 0; i < maxFinishedJobs; i++ {
		j, _, err := env.svc.SubmitTraced(mustSpec(t, coverageSpec(1)), tracing.SpanContext{})
		if err != nil {
			t.Fatal(err)
		}
		if !j.View().Cached {
			t.Fatalf("submission %d missed the cache", i)
		}
		hits = append(hits, j)
	}
	resp, err := http.Get(env.ts.URL + "/v1/jobs/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("the oldest finished job answered %d after %d later ones, want 404", resp.StatusCode, maxFinishedJobs)
	}
	if _, ok := env.svc.Job(hits[0].ID); !ok {
		t.Fatal("the oldest kept finished job was evicted too")
	}
	if v := env.view(t, running.ID); v.State != StateRunning {
		t.Fatalf("running job is %s after the evictions", v.State)
	}
	if got := env.svc.Stats().JobsByState; got[StateDone] != maxFinishedJobs || got[StateRunning] != 1 {
		t.Fatalf("jobs by state %v, want %d done and 1 running", got, maxFinishedJobs)
	}
	again, code := env.submit(t, coverageSpec(1))
	if code != http.StatusAccepted || !again.Cached || again.State != StateDone {
		t.Fatalf("resubmitting the evicted job's spec: %d %+v, want a cache hit", code, again)
	}
	close(release)
	env.awaitState(t, running.ID, StateDone)
}

// TestCheckpointsAreWrittenBehind: a job's checkpoint records cost no
// fsync of their own. Only the submit, start and done records wait for
// one, and the done record's covers the checkpoints, which replay. The
// submit record is journaled after the job is queued, so the worker's
// start record can join its group commit: the three cost one sync each
// at most. Durable checkpoints, appended one after another, would cost
// at least one sync each.
func TestCheckpointsAreWrittenBehind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	var mu sync.Mutex
	ops := map[string]int{}
	hook := func(op string) error {
		mu.Lock()
		ops[op]++
		mu.Unlock()
		return nil
	}
	const units = 5
	saver := func(_ context.Context, _ *JobSpec, rc RunContext) (any, error) {
		for i := 0; i < units; i++ {
			rc.Checkpoint("latitudes", i, units, []byte(`{"LatitudeDeg":0}`))
		}
		return "ok", nil
	}
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 4, Runner: saver, JournalPath: path, JournalHook: hook})
	r, _ := env.submit(t, coverageSpec(1))
	env.awaitState(t, r.ID, StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := env.svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	writes, syncs := ops["write"], ops["sync"]
	mu.Unlock()
	if writes != 3+units || syncs < 1 || syncs > 3 {
		t.Fatalf("%d writes and %d syncs, want %d writes and 1 to 3 syncs (submit, start, done)", writes, syncs, 3+units)
	}
	_, recs, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkpoints := 0
	for _, rec := range recs {
		if rec.Op == journal.OpCheckpoint {
			checkpoints++
		}
	}
	if checkpoints != units {
		t.Fatalf("replayed %d checkpoint records, want %d", checkpoints, units)
	}
}
