package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/service"
)

// workerLog wraps worker handlers and records what reaches them: job
// submits, plain and long-poll status requests, and cancels, and it
// signals each long poll as it arrives. pending[i] counts the long polls
// in flight on worker i (wrap is applied in worker order).
type workerLog struct {
	submits, statuses atomic.Int32
	polls             chan string // job ID of each long poll, as it arrives

	mu      sync.Mutex
	deletes []string
	pending []*atomic.Int32
}

// newWorkerLog buffers more poll signals than a test reads before it
// acts; signals beyond the buffer are dropped, never waited on.
func newWorkerLog() *workerLog { return &workerLog{polls: make(chan string, 64)} }

func (l *workerLog) wrap(h http.Handler) http.Handler {
	inFlight := new(atomic.Int32)
	l.mu.Lock()
	l.pending = append(l.pending, inFlight)
	l.mu.Unlock()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, isJob := strings.CutPrefix(r.URL.Path, "/v1/jobs/")
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			l.submits.Add(1)
		case r.Method == http.MethodDelete && isJob:
			l.mu.Lock()
			l.deletes = append(l.deletes, id)
			l.mu.Unlock()
		case r.Method == http.MethodGet && isJob && !strings.Contains(id, "/"):
			l.statuses.Add(1)
			if r.URL.Query().Has("wait") {
				inFlight.Add(1)
				defer inFlight.Add(-1)
				select {
				case l.polls <- id:
				default: // nobody is listening: never hold up the worker
				}
			}
		}
		h.ServeHTTP(w, r)
	})
}

func (l *workerLog) deleted() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.deletes...)
}

func (l *workerLog) pendingOn(i int) int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pending[i].Load()
}

// TestClusterShardCompletesAfterOneStatusRequest: a shard that finishes
// within the long-poll wait reaches the coordinator through the one
// status request runOn issues for it, so the workers see exactly one
// status request per shard submit.
func TestClusterShardCompletesAfterOneStatusRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sharded campaign")
	}
	log := newWorkerLog()
	tc := startCluster(t, workerOpts{n: 2, wrap: log.wrap})
	spec := clusterGoldenSpecs["coverage"] // 4 units, threshold 3: 2 shards
	golden := directGolden(t, spec)
	if data := awaitResult(t, tc.coordTS.URL, submitJob(t, tc.coordTS.URL, spec)); !bytes.Equal(data, golden) {
		t.Fatalf("sharded bytes (%d) differ from direct run (%d)", len(data), len(golden))
	}
	if s, st := log.submits.Load(), log.statuses.Load(); s != 2 || st != s {
		t.Fatalf("workers saw %d shard submits and %d status requests, want 2 and 2", s, st)
	}
}

// TestClusterProxiedLongPoll: a long poll of a proxied job travels to
// its worker with the query and answers once the job finishes there.
func TestClusterProxiedLongPoll(t *testing.T) {
	release := make(chan struct{})
	log := newWorkerLog()
	tc := startCluster(t, workerOpts{
		n:    2,
		wrap: log.wrap,
		runner: func(int) service.RunnerFunc {
			return func(ctx context.Context, _ *service.JobSpec, _ service.RunContext) (any, error) {
				select {
				case <-release:
					return "ok", nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
		},
	})
	id := submitJob(t, tc.coordTS.URL, clusterGoldenSpecs["passive"]) // under threshold: proxied
	got := make(chan service.JobView, 1)
	go func() {
		var v service.JobView
		resp, err := http.Get(tc.coordTS.URL + "/v1/jobs/" + id + "?wait=1m")
		if err != nil {
			t.Error(err)
		} else {
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				t.Error(err)
			}
			resp.Body.Close()
		}
		got <- v
	}()
	if polled := <-log.polls; polled != id {
		t.Fatalf("the worker was long-polled for %s, want %s", polled, id)
	}
	close(release)
	if v := <-got; v.State != service.StateDone {
		t.Fatalf("proxied long poll answered %q, want done", v.State)
	}
}

// TestClusterDrainCancelsPendingPolls: draining the coordinator while
// both shards' long polls are pending cancels the polls, still sends
// each shard's worker its best-effort DELETE before the drain returns,
// and ends the sharded job canceled.
func TestClusterDrainCancelsPendingPolls(t *testing.T) {
	log := newWorkerLog()
	tc := startCluster(t, workerOpts{
		n:    2,
		wrap: log.wrap,
		runner: func(int) service.RunnerFunc {
			return func(ctx context.Context, _ *service.JobSpec, _ service.RunContext) (any, error) {
				<-ctx.Done() // every shard runs until canceled
				return nil, ctx.Err()
			}
		},
	})
	id := submitJob(t, tc.coordTS.URL, clusterGoldenSpecs["coverage"]) // 2 shards
	polled := map[string]bool{<-log.polls: true}
	for len(polled) < 2 {
		polled[<-log.polls] = true
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tc.coord.Shutdown(ctx); err != nil {
		t.Fatalf("coordinator drain: %v", err)
	}
	deleted := log.deleted()
	if len(deleted) != 2 || !polled[deleted[0]] || !polled[deleted[1]] {
		t.Fatalf("cancels %v after the drain, want one per polled shard %v", deleted, polled)
	}
	if j, ok := tc.coord.local.Job(id); !ok || j.State() != service.StateCanceled {
		t.Fatalf("sharded job after the drain: found %v, want canceled", ok)
	}
}

// TestClusterDrainReleasesProxiedWait: a client's status wait on a
// proxied job, pending on its worker, ends when the coordinator drains.
// The coordinator asks the worker again without the wait and answers
// the job's current view, so the wait cannot hold up the shutdown of
// the coordinator's HTTP server.
func TestClusterDrainReleasesProxiedWait(t *testing.T) {
	log := newWorkerLog()
	started := make(chan struct{}, 1)
	tc := startCluster(t, workerOpts{
		n:    2,
		wrap: log.wrap,
		runner: func(int) service.RunnerFunc {
			return func(ctx context.Context, _ *service.JobSpec, _ service.RunContext) (any, error) {
				select {
				case started <- struct{}{}:
				default: // only the first start is waited for
				}
				<-ctx.Done() // the job runs until its worker drains
				return nil, ctx.Err()
			}
		},
	})
	id := submitJob(t, tc.coordTS.URL, clusterGoldenSpecs["passive"]) // under threshold: proxied
	got := make(chan service.JobView, 1)
	go func() {
		var v service.JobView
		resp, err := http.Get(tc.coordTS.URL + "/v1/jobs/" + id + "?wait=1m")
		if err != nil {
			t.Error(err)
		} else {
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				t.Error(err)
			}
			resp.Body.Close()
		}
		got <- v
	}()
	if polled := <-log.polls; polled != id {
		t.Fatalf("the worker was long-polled for %s, want %s", polled, id)
	}
	// The drain's re-ask must find the job running: wait for a worker to
	// have picked it up.
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tc.coord.Shutdown(ctx); err != nil {
		t.Fatalf("coordinator drain: %v", err)
	}
	if err := tc.coordTS.Config.Shutdown(ctx); err != nil {
		t.Fatalf("coordinator HTTP shutdown with a proxied wait pending: %v", err)
	}
	if v := <-got; v.ID != id || v.State != service.StateRunning {
		t.Fatalf("released wait answered job %q in state %q, want %s running", v.ID, v.State, id)
	}
	if st := log.statuses.Load(); st != 2 {
		t.Fatalf("the worker saw %d status requests, want the wait and one plain re-ask", st)
	}
}
