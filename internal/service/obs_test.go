package service

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/netgraph"
	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/sim"
	"github.com/sinet-io/sinet/internal/tracing"
)

func (e *testEnv) scrape(t *testing.T) string {
	t.Helper()
	resp, err := http.Get(e.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsEndpoint drives one job through submit → run → cache hit and
// verifies the /metrics scrape exposes the serving telemetry: job
// lifecycle counters, admission outcomes, cache hits and the
// campaign-kind duration histogram — including the acceptance-named
// series sinet_jobs_queued, sinet_cache_hits_total and
// sinet_sgp4_calls_total.
func TestMetricsEndpoint(t *testing.T) {
	reg := obs.New()
	defer orbit.SetMetrics(nil)
	defer sim.SetMetrics(nil)
	gate := newGatedRunner(map[string]int{"ok": 1})
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 4, CacheBytes: 1 << 20, Runner: gate.run, Metrics: reg})

	// Before any traffic every required family is already registered.
	first := env.scrape(t)
	for _, want := range []string{
		"sinet_jobs_queued 0",
		"sinet_jobs_running 0",
		"sinet_cache_hits_total 0",
		"sinet_sgp4_calls_total 0",
		"# TYPE sinet_campaign_seconds histogram",
		`sinet_admission_total{code="202"} 0`,
		"sinet_queue_capacity 4",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("pre-traffic scrape missing %q:\n%s", want, first)
		}
	}

	sub, code := env.submit(t, coverageSpec(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	close(gate.release)
	env.awaitState(t, sub.ID, StateDone)
	// Same spec again: a content-addressed cache hit.
	if sub2, code := env.submit(t, coverageSpec(1)); code != http.StatusAccepted || !sub2.Cached {
		t.Fatalf("second submit should be a cache hit (code=%d cached=%v)", code, sub2.Cached)
	}

	out := env.scrape(t)
	for _, want := range []string{
		"sinet_simulations_total 1",
		"sinet_cache_hits_total 1",
		"sinet_cache_misses_total 1",
		`sinet_jobs_finished_total{state="done"} 2`,
		`sinet_admission_total{code="202"} 2`,
		`sinet_campaign_seconds_count{kind="coverage"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("post-traffic scrape missing %q:\n%s", want, out)
		}
	}
}

// TestServingMetricsAllocateNothing pins Config.Metrics' promise for the
// job paths: counting an admission, a finished job and a dedup allocates
// nothing, whether no registry is installed or one is.
func TestServingMetricsAllocateNothing(t *testing.T) {
	t.Cleanup(func() { orbit.SetMetrics(nil); sim.SetMetrics(nil); netgraph.SetMetrics(nil) })
	for _, reg := range []*obs.Registry{nil, obs.New()} {
		env := newTestEnv(t, Config{Workers: 1, Metrics: reg})
		m := env.svc.metrics
		allocs := testing.AllocsPerRun(100, func() {
			m.admission[http.StatusAccepted].Inc()
			m.observeFinished(KindCoverage, StateDone, 0.5)
			m.dedup.Inc()
		})
		if allocs != 0 {
			t.Errorf("registry installed=%v: %v allocations per count, want 0", reg != nil, allocs)
		}
	}
}

// TestMetricsCountCanceledJobs verifies both cancellation paths land in
// sinet_jobs_finished_total{state="canceled"}: canceled while queued
// (never runs) and canceled mid-run (worker unwinds).
func TestMetricsCountCanceledJobs(t *testing.T) {
	reg := obs.New()
	defer orbit.SetMetrics(nil)
	defer sim.SetMetrics(nil)
	gate := newGatedRunner(nil)
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 4, Runner: gate.run, Metrics: reg})

	running, _ := env.submit(t, coverageSpec(1))
	queued, _ := env.submit(t, coverageSpec(2))
	env.awaitState(t, running.ID, StateRunning)

	if _, ok := env.svc.Cancel(queued.ID); !ok {
		t.Fatal("cancel queued")
	}
	if _, ok := env.svc.Cancel(running.ID); !ok {
		t.Fatal("cancel running")
	}
	env.awaitState(t, running.ID, StateCanceled)

	out := env.scrape(t)
	if !strings.Contains(out, `sinet_jobs_finished_total{state="canceled"} 2`) {
		t.Errorf("want 2 canceled jobs in scrape:\n%s", out)
	}
}

// TestRequestLoggingEmitsStructuredLines verifies the request middleware
// logs method/path/status with a request ID, and that job lifecycle
// events appear with job IDs.
func TestRequestLoggingEmitsStructuredLines(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	gate := newGatedRunner(map[string]int{"ok": 1})
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 4, Runner: gate.run, Logger: logger})

	sub, code := env.submit(t, coverageSpec(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	close(gate.release)
	env.awaitState(t, sub.ID, StateDone)

	logs := buf.String()
	for _, want := range []string{
		`"msg":"request"`,
		`"req":"r000001"`,
		`"method":"POST"`,
		`"path":"/v1/jobs"`,
		`"msg":"job queued"`,
		`"msg":"job running"`,
		`"msg":"job finished"`,
		`"job":"` + sub.ID + `"`,
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("logs missing %q:\n%s", want, logs)
		}
	}
}

// TestTelemetryDoesNotPerturbResults is the determinism acceptance test:
// an identical passive campaign must produce byte-identical serialized
// results with and without a registry installed, while the registry
// observes real work (SGP4 calls, sim tasks, phase timings).
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real one-day campaign twice")
	}
	spec := &JobSpec{Kind: KindPassive, Passive: &PassiveSpec{
		Days:  1,
		Sites: []string{"HK"},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	baseline, err := Run(ctx, spec, RunContext{})
	if err != nil {
		t.Fatal(err)
	}
	baseBytes, err := MarshalResult(baseline)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	orbit.SetMetrics(reg)
	sim.SetMetrics(reg)
	defer orbit.SetMetrics(nil)
	defer sim.SetMetrics(nil)

	instrumented, err := Run(ctx, spec, RunContext{})
	if err != nil {
		t.Fatal(err)
	}
	instBytes, err := MarshalResult(instrumented)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(baseBytes, instBytes) {
		t.Fatalf("telemetry perturbed the campaign: %d vs %d bytes", len(baseBytes), len(instBytes))
	}

	if got := reg.Counter("sinet_sgp4_calls_total", "").Value(); got == 0 {
		t.Error("registry observed no SGP4 calls during a real campaign")
	}
	if got := reg.Counter("sinet_sim_tasks_total", "").Value(); got == 0 {
		t.Error("registry observed no sim tasks during a real campaign")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `sinet_sim_phase_seconds_count{phase="contacts"} 1`) {
		t.Errorf("phase histogram missing contacts observation:\n%s", sb.String())
	}

	// Distributed tracing must hold the same contract: a run under a live
	// tracer produces byte-identical results, while the tracer observes
	// real campaign phases.
	tracer := tracing.New("test", 0)
	root := tracer.StartChild(tracing.SpanContext{}, "job")
	tctx := tracing.NewContext(ctx, tracer, root.Context())
	traced, err := Run(tctx, spec, RunContext{})
	if err != nil {
		t.Fatal(err)
	}
	tracedBytes, err := MarshalResult(traced)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(baseBytes, tracedBytes) {
		t.Fatalf("tracing perturbed the campaign: %d vs %d bytes", len(baseBytes), len(tracedBytes))
	}
	root.End()
	spans := tracer.Trace(root.Context().TraceID)
	phases := map[string]bool{}
	for _, sp := range spans {
		phases[sp.Name] = true
	}
	for _, want := range []string{"phase:ephemeris", "phase:contacts"} {
		if !phases[want] {
			t.Errorf("traced run recorded no %q span; got %v", want, phases)
		}
	}
}

// TestMetricsExposeRoutingCounters serves a real routing campaign and
// verifies the network-graph telemetry families land in the scrape:
// topology builds, the ISL edge census, route computations and
// per-policy deliveries.
func TestMetricsExposeRoutingCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("propagates real orbits")
	}
	reg := obs.New()
	defer orbit.SetMetrics(nil)
	defer sim.SetMetrics(nil)
	defer netgraph.SetMetrics(nil)
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 2, Metrics: reg})

	// All five families are pre-registered before any routing traffic.
	first := env.scrape(t)
	for _, want := range []string{
		"sinet_topology_builds_total 0",
		"sinet_isl_edges_live_total 0",
		"sinet_isl_edges_dropped_total 0",
		`sinet_route_computations_total{mode="full"} 0`,
		`sinet_deliveries_total{policy="relay"} 0`,
		`sinet_campaign_seconds_count{kind="routing"} 0`,
	} {
		if !strings.Contains(first, want) {
			t.Errorf("pre-traffic scrape missing %q", want)
		}
	}

	sub, code := env.submit(t, `{"kind":"routing","routing":{"days":1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	env.awaitState(t, sub.ID, StateDone)

	out := env.scrape(t)
	for _, family := range []string{
		"sinet_topology_builds_total",
		"sinet_isl_edges_live_total",
		`sinet_route_computations_total{mode="full"}`,
		`sinet_deliveries_total{policy="relay"}`,
		`sinet_deliveries_total{policy="store"}`,
		`sinet_campaign_seconds_count{kind="routing"}`,
	} {
		if !scrapeCounterPositive(out, family) {
			t.Errorf("scrape counter %q did not move:\n%s", family, out)
		}
	}
}

// scrapeCounterPositive reports whether the exposition line for the given
// series name carries a value greater than zero.
func scrapeCounterPositive(scrape, series string) bool {
	for _, line := range strings.Split(scrape, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return err == nil && v > 0
		}
	}
	return false
}
