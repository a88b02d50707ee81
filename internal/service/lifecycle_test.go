package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/journal"
	"github.com/sinet-io/sinet/internal/netgraph"
	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/sim"
	"github.com/sinet-io/sinet/internal/tracing"
)

// TestTerminalTransitions drives a journaled, instrumented server through
// every way a job ends and pins the bookkeeping of each: exactly one
// terminal journal record with the fields a restarted daemon reads, one
// sinet_jobs_finished_total count per job, and a
// sinet_campaign_seconds{kind} sample only for jobs a worker computed.
func TestTerminalTransitions(t *testing.T) {
	reg := obs.New()
	t.Cleanup(func() { orbit.SetMetrics(nil); sim.SetMetrics(nil); netgraph.SetMetrics(nil) })
	path := filepath.Join(t.TempDir(), "jobs.journal")
	// Each case is a coverage spec keyed apart by its day count.
	const (
		done = iota + 1
		badSpec
		unmarshalable
		peerFilled
		running
		queued
		backoff
	)
	peerKey, err := ConfigKey(mustSpec(t, coverageSpec(peerFilled)))
	if err != nil {
		t.Fatal(err)
	}
	runner := func(ctx context.Context, spec *JobSpec, _ RunContext) (any, error) {
		switch spec.Coverage.Days {
		case badSpec:
			return nil, fmt.Errorf("refused: %w", ErrBadSpec)
		case unmarshalable:
			return math.Inf(1), nil
		case running:
			<-ctx.Done()
			return nil, ctx.Err()
		case backoff:
			return nil, errors.New("transient fault")
		}
		return "computed", nil
	}
	env := newTestEnv(t, Config{
		Workers: 1, QueueDepth: 8,
		MaxRetries: 5, RetryBackoff: time.Minute, // the backoff case stays parked until the drain
		JournalPath: path, Metrics: reg, Runner: runner,
		CacheFill: func(_ context.Context, key Key) ([]byte, bool) {
			return []byte(`"from a peer"`), key == peerKey
		},
	})
	ids := map[int]string{}
	submit := func(days int) string {
		r, code := env.submit(t, coverageSpec(days))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", days, code)
		}
		ids[days] = r.ID
		return r.ID
	}
	cancel := func(id string) {
		req, _ := http.NewRequest(http.MethodDelete, env.ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	env.awaitState(t, submit(done), StateDone)
	env.awaitState(t, submit(badSpec), StateFailed)
	env.awaitState(t, submit(unmarshalable), StateFailed)
	if v := env.awaitState(t, submit(peerFilled), StateDone); !v.Cached {
		t.Errorf("peer-filled job not marked cached: %+v", v)
	}
	env.awaitState(t, submit(running), StateRunning)
	cancel(submit(queued)) // the one worker is busy, so this job is still queued
	env.awaitState(t, ids[queued], StateCanceled)
	cancel(ids[running])
	env.awaitState(t, ids[running], StateCanceled)
	j, _ := env.svc.Job(submit(backoff))
	deadline := time.Now().Add(5 * time.Second)
	for j.Attempts() < 1 || j.State() != StateQueued {
		if time.Now().After(deadline) {
			t.Fatalf("job never parked in backoff (state %s, attempts %d)", j.State(), j.Attempts())
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	if err := env.svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if s := j.State(); s != StateCanceled {
		t.Fatalf("drain left the backing-off job %s, want canceled", s)
	}

	_, recs, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	terminal := map[string][]journal.Record{}
	for _, rec := range recs {
		if rec.Op == journal.OpDone || rec.Op == journal.OpFail || rec.Op == journal.OpCancel {
			terminal[rec.JobID] = append(terminal[rec.JobID], rec)
		}
	}
	want := map[int]journal.Record{
		done:          {Op: journal.OpDone, Attempt: 1},
		badSpec:       {Op: journal.OpFail, Attempt: 1, Err: "refused: " + ErrBadSpec.Error()},
		unmarshalable: {Op: journal.OpFail, Attempt: 1, Err: "serialize result: json: unsupported value: +Inf"},
		peerFilled:    {Op: journal.OpDone, Attempt: 1},
		running:       {Op: journal.OpCancel, Attempt: 1},
		queued:        {Op: journal.OpCancel},
		backoff:       {Op: journal.OpCancel},
	}
	for days, rec := range want {
		rec.JobID = ids[days]
		if got := terminal[ids[days]]; len(got) != 1 || !reflect.DeepEqual(got[0], rec) {
			t.Errorf("case %d: terminal records %+v, want exactly %+v", days, got, rec)
		}
	}

	finished := reg.CounterVec("sinet_jobs_finished_total", "", "state")
	for state, n := range map[State]uint64{StateDone: 2, StateFailed: 2, StateCanceled: 3} {
		if got := finished.With(string(state)).Value(); got != n {
			t.Errorf("sinet_jobs_finished_total{state=%q} = %d, want %d", state, got, n)
		}
	}
	// Computed: done, badSpec, unmarshalable and running. Not computed:
	// the peer fill, the queued cancel and the drained backoff.
	campaign := reg.HistogramVec("sinet_campaign_seconds", "", "kind", obs.DurationBuckets)
	if got := campaign.With(KindCoverage).Count(); got != 4 {
		t.Errorf("sinet_campaign_seconds_count{kind=coverage} = %d, want 4 (worker-computed jobs only)", got)
	}
}

func mustSpec(t *testing.T, body string) *JobSpec {
	t.Helper()
	spec := new(JobSpec)
	if err := json.Unmarshal([]byte(body), spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestProgressKeepsAttemptAlive pins progress as the watchdog's one sign
// of life: an attempt reporting every 10 ms for 200 ms under a 40 ms
// heartbeat timeout runs once and is never shot down.
func TestProgressKeepsAttemptAlive(t *testing.T) {
	reg := obs.New()
	t.Cleanup(func() { orbit.SetMetrics(nil); sim.SetMetrics(nil); netgraph.SetMetrics(nil) })
	runner := func(ctx context.Context, _ *JobSpec, rc RunContext) (any, error) {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for k := 1; k <= 20; k++ {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-tick.C:
			}
			rc.Progress("work", k, 20)
		}
		return "alive", nil
	}
	env := newTestEnv(t, Config{
		Workers: 1, QueueDepth: 4,
		HeartbeatTimeout: 40 * time.Millisecond,
		MaxRetries:       2, RetryBackoff: time.Millisecond,
		Runner: runner, Metrics: reg,
	})
	r, _ := env.submit(t, coverageSpec(1))
	env.awaitState(t, r.ID, StateDone)
	j, _ := env.svc.Job(r.ID)
	if got := j.Attempts(); got != 1 {
		t.Fatalf("reporting job ran %d attempts, want 1", got)
	}
	if scrape := env.scrape(t); !strings.Contains(scrape, "sinet_job_heartbeat_stale_total 0") {
		t.Fatalf("watchdog shot a reporting attempt:\n%s", grepMetric(scrape, "heartbeat_stale"))
	}
}

// TestPhaseVocabulary runs the small campaign of each kind from
// shardGoldenSpecs and requires every phase that reports progress to
// record a phase:<name> span and a sinet_sim_phase_seconds series:
// progress, spans and the phase histogram share one vocabulary.
func TestPhaseVocabulary(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign of every kind")
	}
	reg := obs.New()
	sim.SetMetrics(reg)
	t.Cleanup(func() { sim.SetMetrics(nil) })
	phaseSeconds := reg.HistogramVec("sinet_sim_phase_seconds", "", "phase", obs.DurationBuckets)
	for _, body := range shardGoldenSpecs {
		spec := mustSpec(t, body)
		tr := tracing.New("test", 1024)
		root := tr.StartChild(tracing.SpanContext{}, "attempt")
		ctx := tracing.NewContext(context.Background(), tr, root.Context())
		reported := map[string]bool{} // Phase serializes progress calls
		if _, err := Run(ctx, spec, RunContext{Progress: func(phase string, _, _ int) { reported[phase] = true }}); err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		root.End()
		spans := map[string]bool{}
		for _, sp := range tr.Trace(root.Context().TraceID) {
			spans[sp.Name] = true
		}
		if len(reported) == 0 {
			t.Errorf("%s: no phase reported progress", spec.Kind)
		}
		for phase := range reported {
			if !spans["phase:"+phase] {
				t.Errorf("%s: phase %q reports progress but recorded no phase:%s span", spec.Kind, phase, phase)
			}
			if phaseSeconds.With(phase).Count() == 0 {
				t.Errorf("%s: phase %q reports progress but has no sinet_sim_phase_seconds sample", spec.Kind, phase)
			}
		}
	}
}
