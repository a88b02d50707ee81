package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// coverageSpec builds a distinct valid spec per variant; variants only
// change the content key, never the (fake) work performed.
func coverageSpec(days int) string {
	return fmt.Sprintf(`{"kind":"coverage","coverage":{"latitudes_deg":[0],"days":%d}}`, days)
}

// testEnv is one daemon under test: a Server with an injected runner behind
// a real HTTP listener.
type testEnv struct {
	svc *Server
	ts  *httptest.Server
}

func newTestEnv(t *testing.T, cfg Config) *testEnv {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return &testEnv{svc: svc, ts: ts}
}

func (e *testEnv) submit(t *testing.T, body string) (SubmitResponse, int) {
	t.Helper()
	resp, err := http.Post(e.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SubmitResponse
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("decode submit response %s: %v", data, err)
		}
	}
	return out, resp.StatusCode
}

func (e *testEnv) view(t *testing.T, id string) JobView {
	t.Helper()
	resp, err := http.Get(e.ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func (e *testEnv) result(t *testing.T, id string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(e.ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return data, resp.StatusCode
}

func (e *testEnv) awaitState(t *testing.T, id string, want State) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := e.view(t, id)
		if v.State == want {
			return v
		}
		if v.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s (err %q), want %s", id, v.State, v.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// gatedRunner blocks every execution until released, recording how many
// executions began. It lets tests hold jobs in the running state.
type gatedRunner struct {
	mu      sync.Mutex
	began   int
	release chan struct{}
	result  any
}

func newGatedRunner(result any) *gatedRunner {
	return &gatedRunner{release: make(chan struct{}), result: result}
}

func (g *gatedRunner) run(ctx context.Context, _ *JobSpec, _ RunContext) (any, error) {
	g.mu.Lock()
	g.began++
	g.mu.Unlock()
	select {
	case <-g.release:
		return g.result, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (g *gatedRunner) startedRuns() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.began
}

func TestConcurrentIdenticalSubmissionsRunOneSimulation(t *testing.T) {
	gate := newGatedRunner(map[string]int{"passes": 42})
	env := newTestEnv(t, Config{Workers: 2, QueueDepth: 8, CacheBytes: 1 << 20, Runner: gate.run})

	const clients = 4
	responses := make([]SubmitResponse, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			r, status := env.submit(t, coverageSpec(1))
			if status != http.StatusAccepted {
				t.Errorf("client %d: status %d", i, status)
			}
			responses[i] = r
		}(i)
	}
	wg.Wait()

	// Singleflight: every client shares one job ID, exactly one non-deduped.
	nonDeduped := 0
	for _, r := range responses {
		if r.ID != responses[0].ID {
			t.Fatalf("clients got different job IDs: %s vs %s", r.ID, responses[0].ID)
		}
		if !r.Deduped {
			nonDeduped++
		}
	}
	if nonDeduped != 1 {
		t.Fatalf("%d submissions created jobs, want exactly 1", nonDeduped)
	}

	close(gate.release)
	env.awaitState(t, responses[0].ID, StateDone)
	if got := gate.startedRuns(); got != 1 {
		t.Fatalf("runner executed %d times for %d identical clients, want 1", got, clients)
	}
	if sims := env.svc.Stats().Simulations; sims != 1 {
		t.Fatalf("stats report %d simulations, want 1", sims)
	}

	// Every client fetches the result; all byte-identical.
	first, status := env.result(t, responses[0].ID)
	if status != http.StatusOK {
		t.Fatalf("result status %d: %s", status, first)
	}
	for i := 1; i < clients; i++ {
		data, _ := env.result(t, responses[i].ID)
		if !bytes.Equal(first, data) {
			t.Fatalf("client %d result differs:\n%s\nvs\n%s", i, data, first)
		}
	}
}

func TestCacheHitServesIdenticalBytesWithoutRerun(t *testing.T) {
	gate := newGatedRunner([]string{"deterministic", "result"})
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 4, CacheBytes: 1 << 20, Runner: gate.run})
	close(gate.release) // run immediately

	r1, _ := env.submit(t, coverageSpec(2))
	env.awaitState(t, r1.ID, StateDone)
	fresh, _ := env.result(t, r1.ID)

	r2, status := env.submit(t, coverageSpec(2))
	if status != http.StatusAccepted {
		t.Fatalf("resubmit status %d", status)
	}
	if r2.ID == r1.ID {
		t.Fatal("cache hit should mint a new job, not resurrect the old one")
	}
	v := env.view(t, r2.ID)
	if v.State != StateDone || !v.Cached {
		t.Fatalf("cache-hit job is %s cached=%v, want done cached=true", v.State, v.Cached)
	}
	cached, _ := env.result(t, r2.ID)
	if !bytes.Equal(fresh, cached) {
		t.Fatalf("cached result differs from fresh:\n%s\nvs\n%s", cached, fresh)
	}
	if got := gate.startedRuns(); got != 1 {
		t.Fatalf("runner executed %d times, want 1 (second submission must be a cache hit)", got)
	}
}

func TestCancelMidRunFreesTheWorker(t *testing.T) {
	gate := newGatedRunner(nil)
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 4, Runner: gate.run})

	r1, _ := env.submit(t, coverageSpec(1))
	env.awaitState(t, r1.ID, StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, env.ts.URL+"/v1/jobs/"+r1.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	v := env.awaitState(t, r1.ID, StateCanceled)
	if v.Error != context.Canceled.Error() {
		t.Fatalf("canceled job error = %q", v.Error)
	}
	if _, status := env.result(t, r1.ID); status != http.StatusConflict {
		t.Fatalf("result of canceled job returned %d, want 409", status)
	}

	// The sole worker must be free again: an identical resubmission gets a
	// fresh execution (the canceled job was dropped from the dedup index)...
	r2, status := env.submit(t, coverageSpec(1))
	if status != http.StatusAccepted {
		t.Fatalf("resubmit after cancel: status %d", status)
	}
	if r2.Deduped {
		t.Fatal("resubmission attached to the canceled job")
	}
	// ...and it reaches running on that worker, then completes once the
	// gate opens — proving the worker survived the cancel.
	env.awaitState(t, r2.ID, StateRunning)
	close(gate.release)
	env.awaitState(t, r2.ID, StateDone)
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	gate := newGatedRunner(nil)
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 4, Runner: gate.run})

	blocker, _ := env.submit(t, coverageSpec(1))
	env.awaitState(t, blocker.ID, StateRunning)
	queued, _ := env.submit(t, coverageSpec(2))
	if got := env.view(t, queued.ID).State; got != StateQueued {
		t.Fatalf("second job is %s, want queued behind the single worker", got)
	}

	if _, ok := env.svc.Cancel(queued.ID); !ok {
		t.Fatal("cancel of queued job failed")
	}
	env.awaitState(t, queued.ID, StateCanceled)

	close(gate.release)
	env.awaitState(t, blocker.ID, StateDone)
	if got := gate.startedRuns(); got != 1 {
		t.Fatalf("runner began %d executions; the canceled queued job must never run", got)
	}
}

func TestFullQueueBackpressureKeepsHealthz200(t *testing.T) {
	gate := newGatedRunner(nil)
	defer close(gate.release)
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 1, Runner: gate.run})

	running, _ := env.submit(t, coverageSpec(1))
	env.awaitState(t, running.ID, StateRunning)
	if _, status := env.submit(t, coverageSpec(2)); status != http.StatusAccepted {
		t.Fatalf("queueing submission: status %d", status)
	}

	// Queue is now full: worker busy + one queued. The next distinct spec
	// must be refused with 429 and a Retry-After hint.
	resp, err := http.Post(env.ts.URL+"/v1/jobs", "application/json", strings.NewReader(coverageSpec(3)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue returned %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}

	// Backpressure is not unhealthiness: liveness stays 200.
	hz, err := http.Get(env.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz under backpressure returned %d, want 200", hz.StatusCode)
	}

	// A submission identical to an in-flight job still dedups — no queue
	// slot needed, so it succeeds even while the queue is full.
	dup, status := env.submit(t, coverageSpec(1))
	if status != http.StatusAccepted || !dup.Deduped {
		t.Fatalf("identical submission under backpressure: status %d deduped %v", status, dup.Deduped)
	}
}

func TestGracefulShutdownDrainsAndRefusesNewWork(t *testing.T) {
	gate := newGatedRunner(nil)
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 4, Runner: gate.run})

	running, _ := env.submit(t, coverageSpec(1))
	env.awaitState(t, running.ID, StateRunning)
	queued, _ := env.submit(t, coverageSpec(2))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := env.svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The running campaign observed context cancellation (the gated runner
	// returns ctx.Err()) and unwound to canceled; the queued one never ran.
	if got := env.view(t, running.ID).State; got != StateCanceled {
		t.Fatalf("running job ended %s, want canceled", got)
	}
	if got := env.view(t, queued.ID).State; got != StateCanceled {
		t.Fatalf("queued job ended %s, want canceled", got)
	}
	if got := gate.startedRuns(); got != 1 {
		t.Fatalf("runner began %d executions, want 1", got)
	}

	// New work is refused with 503 while existing state stays queryable.
	resp, err := http.Post(env.ts.URL+"/v1/jobs", "application/json", strings.NewReader(coverageSpec(3)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining returned %d, want 503", resp.StatusCode)
	}
	hz, err := http.Get(env.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	_ = json.NewDecoder(hz.Body).Decode(&health)
	hz.Body.Close()
	if health["status"] != "draining" {
		t.Fatalf("healthz status %q during drain", health["status"])
	}
}

func TestBadSubmissionsAreRejected(t *testing.T) {
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 1, Runner: newGatedRunner(nil).run})
	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed JSON", "{", http.StatusBadRequest},
		{"unknown field", `{"kind":"coverage","coverage":{"altitude":7}}`, http.StatusBadRequest},
		{"unknown kind", `{"kind":"teleport"}`, http.StatusBadRequest},
		{"bad site", `{"kind":"passive","passive":{"sites":["ATLANTIS"]}}`, http.StatusBadRequest},
		{"cadence finer than the serving limit", `{"kind":"routing","routing":{"snapshot_step":"10us"}}`, http.StatusBadRequest},
		{"span past year 9999", `{"kind":"coverage","coverage":{"start":"9999-12-31T23:00:00-05:00"}}`, http.StatusBadRequest},
		{"span before year 0", `{"kind":"coverage","coverage":{"start":"0000-01-01T00:00:00+05:00"}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if _, status := env.submit(t, tc.body); status != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, status, tc.want)
		}
	}
	if _, status := env.result(t, "j999999-nope"); status != http.StatusNotFound {
		t.Errorf("unknown job result: status %d, want 404", status)
	}
}

// progressRunner emits a fixed progress sequence once allowed to, then
// returns. It coordinates with the SSE test so no event can be dropped.
func TestSSEStreamsProgressAndTerminalState(t *testing.T) {
	proceed := make(chan struct{})
	runner := func(ctx context.Context, _ *JobSpec, rc RunContext) (any, error) {
		<-proceed
		for i := 1; i <= 3; i++ {
			rc.Progress("contacts", i, 3)
		}
		return "done-result", nil
	}
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 4, Runner: runner})

	r, _ := env.submit(t, coverageSpec(1))
	resp, err := http.Get(env.ts.URL + "/v1/jobs/" + r.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var events []Event
	scanner := bufio.NewScanner(resp.Body)
	readEvent := func() Event {
		t.Helper()
		for scanner.Scan() {
			line := scanner.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad SSE payload %q: %v", line, err)
			}
			events = append(events, ev)
			return ev
		}
		t.Fatalf("SSE stream ended early after %d events (%v)", len(events), scanner.Err())
		return Event{}
	}

	// First frame is the snapshot; only then release the runner, so the
	// subscriber is guaranteed to be attached for every progress event.
	first := readEvent()
	if first.State != StateQueued && first.State != StateRunning {
		t.Fatalf("first event state %s", first.State)
	}
	close(proceed)

	for {
		ev := readEvent()
		if ev.State.Terminal() {
			break
		}
	}
	last := events[len(events)-1]
	if last.State != StateDone {
		t.Fatalf("terminal event state %s (error %q), want done", last.State, last.Error)
	}
	sawProgress := false
	lastCompleted := 0
	for _, ev := range events {
		if ev.Phase == "contacts" {
			sawProgress = true
			if ev.Completed <= lastCompleted {
				t.Fatalf("progress not increasing: %+v", events)
			}
			lastCompleted = ev.Completed
			if ev.Total != 3 {
				t.Fatalf("progress total %d, want 3", ev.Total)
			}
		}
	}
	if !sawProgress {
		t.Fatalf("no progress events in stream: %+v", events)
	}
}

func TestSSEOnTerminalJobSendsSingleSnapshot(t *testing.T) {
	gate := newGatedRunner("x")
	close(gate.release)
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 4, Runner: gate.run})
	r, _ := env.submit(t, coverageSpec(1))
	env.awaitState(t, r.ID, StateDone)

	resp, err := http.Get(env.ts.URL + "/v1/jobs/" + r.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body) // handler returns after the snapshot
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "data: "); got != 1 {
		t.Fatalf("terminal-job SSE sent %d events, want exactly 1:\n%s", got, data)
	}
	if !strings.Contains(string(data), `"state":"done"`) {
		t.Fatalf("snapshot not terminal: %s", data)
	}
}

func TestStatsEndpoint(t *testing.T) {
	gate := newGatedRunner("x")
	close(gate.release)
	env := newTestEnv(t, Config{Workers: 2, QueueDepth: 4, CacheBytes: 1 << 20, Runner: gate.run})
	r, _ := env.submit(t, coverageSpec(1))
	env.awaitState(t, r.ID, StateDone)
	env.submit(t, coverageSpec(1)) // cache hit

	resp, err := http.Get(env.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s Stats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Workers != 2 || s.QueueCapacity != 4 {
		t.Fatalf("stats shape wrong: %+v", s)
	}
	if s.Simulations != 1 {
		t.Fatalf("simulations = %d, want 1 (second submission was a cache hit)", s.Simulations)
	}
	if s.Cache.Hits != 1 {
		t.Fatalf("cache hits = %d, want 1", s.Cache.Hits)
	}
	if s.JobsByState[StateDone] != 2 {
		t.Fatalf("jobs by state: %+v, want 2 done", s.JobsByState)
	}
}

// TestServeRealCoverageCampaign exercises the default runner end to end:
// a real (tiny) revisit sweep through the HTTP API.
func TestServeRealCoverageCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("propagates real orbits")
	}
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 4, CacheBytes: 1 << 20})
	r, status := env.submit(t, `{"kind":"coverage","coverage":{"constellation":"FOSSA","latitudes_deg":[0,45],"days":1}}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	env.awaitState(t, r.ID, StateDone)
	data, status := env.result(t, r.ID)
	if status != http.StatusOK {
		t.Fatalf("result status %d: %s", status, data)
	}
	var stats []map[string]any
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatalf("result not a revisit-stats list: %v\n%s", err, data)
	}
	if len(stats) != 2 {
		t.Fatalf("got %d latitude rows, want 2", len(stats))
	}
}

// TestUnknownKindResponseEnumeratesKinds verifies the 400 body a client
// gets for an unsupported kind names every kind the daemon can serve —
// including routing — so the error is self-documenting.
func TestUnknownKindResponseEnumeratesKinds(t *testing.T) {
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 1, Runner: newGatedRunner(nil).run})
	resp, err := http.Post(env.ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"kind":"teleport"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, k := range kinds {
		if !bytes.Contains(body, []byte(k.name)) {
			t.Errorf("400 body %q does not list kind %q", body, k.name)
		}
	}

	// A routing spec with a bad policy is rejected the same way.
	if _, status := env.submit(t, `{"kind":"routing","routing":{"policy":"teleport"}}`); status != http.StatusBadRequest {
		t.Errorf("bad routing policy: status %d, want 400", status)
	}
}

// TestServeRealRoutingCampaign runs a routing job through the daemon and
// checks the served bytes are identical to calling the library directly —
// the serving layer adds no serialization drift.
func TestServeRealRoutingCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("propagates real orbits")
	}
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 4, CacheBytes: 1 << 20})
	const body = `{"kind":"routing","routing":{"seed":9,"days":1,"policy":"compare"}}`
	r, status := env.submit(t, body)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	env.awaitState(t, r.ID, StateDone)
	served, status := env.result(t, r.ID)
	if status != http.StatusOK {
		t.Fatalf("result status %d: %s", status, served)
	}

	var spec JobSpec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	direct, err := Run(context.Background(), &spec, RunContext{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := MarshalResult(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Fatalf("served routing bytes differ from the direct library call:\nserved %d bytes\ndirect %d bytes", len(served), len(want))
	}
}
