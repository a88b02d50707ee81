package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/service"
	"github.com/sinet-io/sinet/internal/tracing"
)

// tracedCluster is startCluster with a tracer in every process: one per
// worker (named worker:<i>) and one on the coordinator.
func tracedCluster(t *testing.T, n, threshold int) *testCluster {
	t.Helper()
	return startCluster(t, workerOpts{
		n:         n,
		threshold: threshold,
		cfg: func(i int, c *service.Config) {
			c.Tracer = tracing.New(fmt.Sprintf("worker:%d", i), 0)
		},
		coordCfg: func(c *Config) {
			c.Tracer = tracing.New("coordinator", 0)
		},
	})
}

func fetchJobTraceJSON(t *testing.T, baseURL, id string) service.JobTrace {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: %d %s", resp.StatusCode, raw)
	}
	var jt service.JobTrace
	if err := json.Unmarshal(raw, &jt); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	return jt
}

// TestClusterStitchedShardTrace runs a sharded campaign and asserts the
// coordinator's trace endpoint assembles one timeline: a single trace
// ID whose spans come from the coordinator (job, fanout, shards, fold,
// merge) AND from at least two distinct workers (their shard jobs).
func TestClusterStitchedShardTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sharded campaign across an in-process fleet")
	}
	tc := tracedCluster(t, 3, 3)
	spec := clusterGoldenSpecs["coverage"] // 4 latitudes >= threshold 3: shards
	id := submitJob(t, tc.coordTS.URL, spec)
	awaitResult(t, tc.coordTS.URL, id)

	jt := fetchJobTraceJSON(t, tc.coordTS.URL, id)
	if jt.TraceID == "" {
		t.Fatal("stitched trace has no trace ID")
	}
	services := map[string]bool{}
	names := map[string]bool{}
	for _, sp := range jt.Spans {
		if sp.TraceID != jt.TraceID {
			t.Fatalf("span %s/%s on trace %s, want single trace %s", sp.Service, sp.Name, sp.TraceID, jt.TraceID)
		}
		services[sp.Service] = true
		names[sp.Name] = true
	}
	if !services["coordinator"] {
		t.Errorf("no coordinator spans in stitched trace: %v", services)
	}
	nWorkers := 0
	for svc := range services {
		if strings.HasPrefix(svc, "worker:") {
			nWorkers++
		}
	}
	if nWorkers < 2 {
		t.Errorf("stitched trace covers %d workers, want >= 2: %v", nWorkers, services)
	}
	for _, want := range []string{"job", "fanout", "shard", "shard.attempt", "checkpoint.fold", "merge"} {
		if !names[want] {
			t.Errorf("stitched trace missing %q span: %v", want, names)
		}
	}
}

// TestClusterProxiedTrace submits a small (unsharded) campaign, which
// the coordinator proxies to a ring worker, and asserts the stitched
// timeline shows the proxy hop and the worker's own lifecycle under one
// trace.
func TestClusterProxiedTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small campaign across an in-process fleet")
	}
	tc := tracedCluster(t, 2, 100) // threshold high: nothing shards
	id := submitJob(t, tc.coordTS.URL, clusterGoldenSpecs["passive"])
	awaitResult(t, tc.coordTS.URL, id)

	jt := fetchJobTraceJSON(t, tc.coordTS.URL, id)
	names := map[string]bool{}
	services := map[string]bool{}
	for _, sp := range jt.Spans {
		if sp.TraceID != jt.TraceID {
			t.Fatalf("span %s on trace %s, want %s", sp.Name, sp.TraceID, jt.TraceID)
		}
		names[sp.Name] = true
		services[sp.Service] = true
	}
	if !names["proxy.submit"] || !services["coordinator"] {
		t.Errorf("proxy hop missing from timeline: names %v services %v", names, services)
	}
	if !names["job"] || !names["attempt"] {
		t.Errorf("worker lifecycle missing from timeline: %v", names)
	}
}

// workerSubmit is one job submission as a worker received it.
type workerSubmit struct {
	reqID string
	trace tracing.SpanContext
	shard bool
}

// recordSubmits wraps worker handlers to record every POST /v1/jobs;
// take returns and clears the record.
func recordSubmits() (wrap func(http.Handler) http.Handler, take func() []workerSubmit) {
	var mu sync.Mutex
	var seen []workerSubmit
	wrap = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				mu.Lock()
				seen = append(seen, workerSubmit{
					reqID: r.Header.Get("X-Request-Id"),
					trace: tracing.FromRequest(r),
					shard: bytes.Contains(body, []byte(`"shard":`)),
				})
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		})
	}
	take = func() []workerSubmit {
		mu.Lock()
		defer mu.Unlock()
		out := seen
		seen = nil
		return out
	}
	return wrap, take
}

// TestWorkerRequestHeaders pins the correlation headers on worker
// submits. A proxied submit carries the client's X-Request-Id and a
// traceparent in the client's trace — passed through untouched when the
// coordinator records no spans itself. Each shard submit carries its own
// coordinator-minted c000001-style X-Request-Id and a traceparent in the
// owning job's trace.
func TestWorkerRequestHeaders(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns across an in-process fleet")
	}
	const clientTP = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	client, _ := tracing.ParseTraceparent(clientTP)
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("coordinator_traced=%v", traced), func(t *testing.T) {
			wrap, take := recordSubmits()
			tc := startCluster(t, workerOpts{
				n:    2,
				wrap: wrap,
				coordCfg: func(c *Config) {
					if traced {
						c.Tracer = tracing.New("coordinator", 0)
					}
				},
			})

			req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(clusterGoldenSpecs["passive"]))
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Request-Id", "client-req-7")
			req.Header.Set(tracing.Header, clientTP)
			rec := httptest.NewRecorder()
			tc.coordTS.Config.Handler.ServeHTTP(rec, req)
			var accepted struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &accepted); err != nil || rec.Code != http.StatusAccepted {
				t.Fatalf("proxied submit: status %d, %v", rec.Code, err)
			}
			awaitResult(t, tc.coordTS.URL, accepted.ID)
			proxied := take()
			if len(proxied) != 1 || proxied[0].shard {
				t.Fatalf("proxied submit reached workers as %d submits (%v), want one unsharded submit", len(proxied), proxied)
			}
			if got := proxied[0]; got.reqID != "client-req-7" || got.trace.TraceID != client.TraceID {
				t.Errorf("proxied submit carried X-Request-Id %q and trace %s, want %q and the client's %s",
					got.reqID, got.trace.TraceID, "client-req-7", client.TraceID)
			}
			if got := proxied[0].trace; !traced && got != client {
				t.Errorf("untraced coordinator forwarded traceparent %s, want the client's %s untouched", got.Traceparent(), clientTP)
			}
			if !traced {
				return
			}

			id := submitJob(t, tc.coordTS.URL, clusterGoldenSpecs["coverage"]) // 4 units, threshold 3: 2 shards
			awaitResult(t, tc.coordTS.URL, id)
			jt, ok := tc.coord.local.JobTraceByID(id)
			if !ok || jt.TraceID == "" {
				t.Fatalf("sharded job %s has no trace", id)
			}
			shards := take()
			if len(shards) < 2 {
				t.Fatalf("sharded campaign reached workers as %d submits, want >= 2", len(shards))
			}
			minted := regexp.MustCompile(`^c[0-9]{6}$`)
			ids := map[string]bool{}
			for _, s := range shards {
				if !s.shard || !minted.MatchString(s.reqID) || ids[s.reqID] {
					t.Errorf("shard submit (shard clause %v) carried X-Request-Id %q, want a shard spec with a fresh c000001-style ID", s.shard, s.reqID)
				}
				ids[s.reqID] = true
				if !s.trace.Valid() || s.trace.TraceID.String() != jt.TraceID {
					t.Errorf("shard submit traceparent %q, want a span of the job's trace %s", s.trace.Traceparent(), jt.TraceID)
				}
			}
		})
	}
}

// TestClusterScrapeRuntimePerWorker pins the per-worker re-export: a
// worker's runtime health gauges appear on the coordinator scrape under
// a worker label, one series per peer, never summed into one number.
func TestClusterScrapeRuntimePerWorker(t *testing.T) {
	tc := startCluster(t, workerOpts{
		n: 2,
		cfg: func(i int, c *service.Config) {
			c.Metrics = obs.New()
			obs.RegisterRuntimeMetrics(c.Metrics)
		},
	})
	resp, err := http.Get(tc.coordTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	out := string(raw)
	for i := range tc.servers {
		want := fmt.Sprintf(`sinet_cluster_go_goroutines{worker="%s"}`, tc.servers[i].URL)
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing per-worker series %s:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "sinet_cluster_go_goroutines ") {
			t.Errorf("goroutine gauge was summed across workers: %s", line)
		}
	}
}
