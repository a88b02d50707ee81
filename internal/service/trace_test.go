package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/tracing"
)

// traceTestEnv is a daemon with tracing on and a fake runner that
// records one nested phase span, like a campaign would.
func traceTestEnv(t *testing.T) (*testEnv, *tracing.Tracer) {
	t.Helper()
	tracer := tracing.New("worker:test", 0)
	env := newTestEnv(t, Config{
		Workers:    2,
		QueueDepth: 8,
		Tracer:     tracer,
		Runner: func(ctx context.Context, _ *JobSpec, _ RunContext) (any, error) {
			_, sp := tracing.Start(ctx, "phase:contacts", tracing.Int("units", 3))
			sp.End()
			return map[string]int{"ok": 1}, nil
		},
	})
	return env, tracer
}

// TestJobTraceEndpoint runs a job to completion and checks the
// assembled timeline: every lifecycle span present, one shared trace
// ID, parents resolving inside the trace, and the JSON field order that
// is part of the export contract.
func TestJobTraceEndpoint(t *testing.T) {
	env, _ := traceTestEnv(t)
	sub, code := env.submit(t, coverageSpec(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	env.awaitState(t, sub.ID, StateDone)

	resp, err := http.Get(env.ts.URL + "/v1/jobs/" + sub.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint: status %d: %s", resp.StatusCode, raw)
	}

	var jt JobTrace
	if err := json.Unmarshal(raw, &jt); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	if jt.JobID != sub.ID {
		t.Errorf("job_id = %q, want %q", jt.JobID, sub.ID)
	}
	if jt.TraceID == "" || len(jt.TraceID) != 32 {
		t.Errorf("trace_id = %q, want 32-hex", jt.TraceID)
	}
	names := map[string]bool{}
	ids := map[string]bool{}
	for _, sp := range jt.Spans {
		names[sp.Name] = true
		ids[sp.SpanID] = true
		if sp.TraceID != jt.TraceID {
			t.Errorf("span %s has trace %s, want %s", sp.Name, sp.TraceID, jt.TraceID)
		}
	}
	for _, want := range []string{"job", "admission", "queue.wait", "attempt", "phase:contacts"} {
		if !names[want] {
			t.Errorf("timeline missing %q span; got %v", want, names)
		}
	}
	for _, sp := range jt.Spans {
		if sp.ParentID != "" && !ids[sp.ParentID] && sp.Name != "job" {
			t.Errorf("span %s parent %s not in trace", sp.Name, sp.ParentID)
		}
	}

	// The raw JSON field order is a contract (tracing.SpanJSON): golden
	// tools parse it positionally. Pin the prefix of the first span.
	spansAt := strings.Index(string(raw), `"spans":[{`)
	if spansAt < 0 {
		t.Fatalf("no spans array in %s", raw)
	}
	first := string(raw[spansAt+len(`"spans":[`):])
	last := -1
	for _, key := range []string{`"trace_id"`, `"span_id"`, `"name"`, `"service"`, `"start"`, `"duration_ms"`} {
		at := strings.Index(first, key)
		if at < 0 {
			t.Fatalf("first span missing %s: %s", key, first[:min(len(first), 200)])
		}
		if at < last {
			t.Errorf("field %s out of order in span JSON: %s", key, first[:min(len(first), 200)])
		}
		last = at
	}

	// Unknown jobs 404.
	resp404, err := http.Get(env.ts.URL + "/v1/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace: status %d, want 404", resp404.StatusCode)
	}
}

// TestDebugTracesEndpoint checks the recent-roots listing, the
// ?trace=<id> single-trace form the coordinator stitches with, and the
// malformed-parameter rejections.
func TestDebugTracesEndpoint(t *testing.T) {
	env, _ := traceTestEnv(t)
	sub, _ := env.submit(t, coverageSpec(2))
	env.awaitState(t, sub.ID, StateDone)

	resp, err := http.Get(env.ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: status %d", resp.StatusCode)
	}
	var dt DebugTraces
	if err := json.Unmarshal(raw, &dt); err != nil {
		t.Fatal(err)
	}
	if dt.Service != "worker:test" {
		t.Errorf("service = %q", dt.Service)
	}
	if len(dt.Roots) == 0 {
		t.Fatal("no roots after a completed job")
	}
	if !strings.HasPrefix(string(raw), `{"service":`) {
		t.Errorf("debug payload field order changed: %s", raw[:min(len(raw), 80)])
	}

	// The job root must be among the recent roots; fetch its full trace.
	var traceID string
	for _, r := range dt.Roots {
		if r.Name == "job" {
			traceID = r.TraceID
		}
	}
	if traceID == "" {
		t.Fatalf("no job root in %s", raw)
	}
	respT, err := http.Get(env.ts.URL + "/debug/traces?trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	rawT, _ := io.ReadAll(respT.Body)
	respT.Body.Close()
	var tj tracing.TraceJSON
	if err := json.Unmarshal(rawT, &tj); err != nil {
		t.Fatal(err)
	}
	if tj.TraceID != traceID || len(tj.Spans) < 4 {
		t.Errorf("trace fetch returned %d spans for %q", len(tj.Spans), tj.TraceID)
	}

	for _, bad := range []string{"?trace=xyz", "?limit=0", "?limit=nope"} {
		r, err := http.Get(env.ts.URL + "/debug/traces" + bad)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, r.StatusCode)
		}
	}
}

// TestTraceparentPropagation submits with a client traceparent and
// expects the job's whole timeline to join the client's trace.
func TestTraceparentPropagation(t *testing.T) {
	env, _ := traceTestEnv(t)
	const clientTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest(http.MethodPost, env.ts.URL+"/v1/jobs", strings.NewReader(coverageSpec(3)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(tracing.Header, "00-"+clientTrace+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	env.awaitState(t, sub.ID, StateDone)

	jt, ok := env.svc.JobTraceByID(sub.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	if jt.TraceID != clientTrace {
		t.Fatalf("job joined trace %q, want client trace %q", jt.TraceID, clientTrace)
	}
}

// TestRetryBackoffSpan pins the retry.backoff span: a job whose first
// attempt fails transiently carries exactly one, recorded once the
// backoff timer requeued it, naming the failed attempt and its cause and
// lasting at least the scheduled backoff.
func TestRetryBackoffSpan(t *testing.T) {
	const backoff = 20 * time.Millisecond
	fr := &flakyRunner{failures: 1, err: errors.New("transient fault"), result: "ok"}
	env := newTestEnv(t, Config{
		Workers: 1, QueueDepth: 4,
		MaxRetries: 2, RetryBackoff: backoff,
		Runner: fr.run, Tracer: tracing.New("worker:test", 0),
	})
	sub, code := env.submit(t, coverageSpec(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	env.awaitState(t, sub.ID, StateDone)

	// The timer records the span after the requeue, so it can trail the
	// job's completion by a moment.
	var spans []tracing.SpanJSON
	for deadline := time.Now().Add(5 * time.Second); len(spans) == 0 && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		jt, ok := env.svc.JobTraceByID(sub.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		for _, sp := range jt.Spans {
			if sp.Name == "retry.backoff" {
				spans = append(spans, sp)
			}
		}
	}
	if len(spans) != 1 {
		t.Fatalf("trace holds %d retry.backoff spans, want 1", len(spans))
	}
	attrs := map[string]string{}
	for _, a := range spans[0].Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["attempt"] != "1" || attrs["cause"] != "transient fault" {
		t.Errorf("retry.backoff attrs = %v, want attempt 1 and cause %q", attrs, "transient fault")
	}
	delay := retryDelay(Key(sub.Key), 1, backoff)
	if got := time.Duration(spans[0].DurationMS * float64(time.Millisecond)); got < delay {
		t.Errorf("retry.backoff lasted %v, shorter than the %v backoff", got, delay)
	}
}

// TestRequestIDEcho checks the X-Request-Id satellite: a client-supplied
// ID is echoed back, and the server mints one when the client sent none.
func TestRequestIDEcho(t *testing.T) {
	env, _ := traceTestEnv(t)

	req, err := http.NewRequest(http.MethodGet, env.ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "client-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-abc-123" {
		t.Errorf("client request ID not echoed: got %q", got)
	}

	resp2, err := http.Get(env.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got == "" {
		t.Error("server minted no X-Request-Id for a bare request")
	}
}

// TestConcurrentJobsRecordSpans hammers the tracer from many concurrent
// jobs while readers poll the export endpoints — the -race companion to
// the package-level tracing tests, at the service layer.
func TestConcurrentJobsRecordSpans(t *testing.T) {
	env, tracer := traceTestEnv(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			resp, err := http.Get(env.ts.URL + "/debug/traces")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		sub, code := env.submit(t, coverageSpec(10+i))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		ids = append(ids, sub.ID)
	}
	for _, id := range ids {
		env.awaitState(t, id, StateDone)
	}
	<-done
	if got := tracer.Recorded(); got < 8*4 {
		t.Errorf("recorded %d spans across 8 jobs, want >= %d", got, 8*4)
	}
}
