package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/service"
)

// clusterGoldenSpecs mirrors the service layer's shard golden set: one
// small campaign per kind. passive (3 units) stays under the test
// threshold and exercises the proxy path; the rest shard.
var clusterGoldenSpecs = map[string]string{
	"passive":  `{"kind":"passive","passive":{"seed":11,"sites":["HK","SYD","LDN"],"constellations":["Tianqi"]}}`,
	"active":   `{"kind":"active","active":{"seed":5,"nodes":2}}`,
	"coverage": `{"kind":"coverage","coverage":{"latitudes_deg":[-30,0,30,60]}}`,
	"backhaul": `{"kind":"backhaul"}`,
	"routing":  `{"kind":"routing","routing":{"seed":3,"packet_interval":"2h"}}`,
}

// testCluster is an in-process fleet: real service.Servers behind real
// (httptest) listeners, fronted by a real Coordinator.
type testCluster struct {
	workers  []*service.Server
	servers  []*httptest.Server
	coord    *Coordinator
	coordTS  *httptest.Server
	registry *obs.Registry
}

type workerOpts struct {
	n         int
	runner    func(i int) service.RunnerFunc
	cfg       func(i int, c *service.Config)
	coordCfg  func(c *Config)
	wrap      func(h http.Handler) http.Handler // around every worker's handler
	threshold int
}

func startCluster(t *testing.T, o workerOpts) *testCluster {
	t.Helper()
	tc := &testCluster{registry: obs.New()}
	peers := make([]string, o.n)
	for i := 0; i < o.n; i++ {
		cfg := service.Config{Workers: 2, QueueDepth: 32, CacheBytes: 1 << 20}
		if o.runner != nil {
			cfg.Runner = o.runner(i)
		}
		if o.cfg != nil {
			o.cfg(i, &cfg)
		}
		srv, err := service.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		if o.wrap != nil {
			h = o.wrap(h)
		}
		ts := httptest.NewServer(h)
		tc.workers = append(tc.workers, srv)
		tc.servers = append(tc.servers, ts)
		peers[i] = ts.URL
	}
	threshold := o.threshold
	if threshold == 0 {
		threshold = 3
	}
	ccfg := Config{
		Peers:          peers,
		ShardThreshold: threshold,
		MaxShards:      3,
		ProbeInterval:  25 * time.Millisecond,
		Metrics:        tc.registry,
		Local:          service.Config{Workers: 2, QueueDepth: 32},
	}
	if o.coordCfg != nil {
		o.coordCfg(&ccfg)
	}
	coord, err := New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.coord = coord
	tc.coordTS = httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		tc.coordTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = coord.Shutdown(ctx)
		cancel()
		for i, ts := range tc.servers {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			_ = tc.workers[i].Shutdown(ctx)
			cancel()
		}
	})
	return tc
}

// submitJob posts a spec and returns the accepted job ID.
func submitJob(t *testing.T, baseURL, specJSON string) string {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit to %s: %d %s", baseURL, resp.StatusCode, body)
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil || accepted.ID == "" {
		t.Fatalf("unreadable accept payload: %s", body)
	}
	return accepted.ID
}

// awaitResult polls a job to StateDone and returns its result bytes.
func awaitResult(t *testing.T, baseURL, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(baseURL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view service.JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch view.State {
		case service.StateDone:
			rr, err := http.Get(baseURL + "/v1/jobs/" + id + "/result")
			if err != nil {
				t.Fatal(err)
			}
			defer rr.Body.Close()
			data, err := io.ReadAll(rr.Body)
			if err != nil || rr.StatusCode != http.StatusOK {
				t.Fatalf("result fetch: %d %v", rr.StatusCode, err)
			}
			return data
		case service.StateFailed, service.StateCanceled:
			t.Fatalf("job %s reached %s: %s", id, view.State, view.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

// directGolden runs the spec through the plain library.
func directGolden(t *testing.T, specJSON string) []byte {
	t.Helper()
	var spec service.JobSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	res, err := service.Run(context.Background(), &spec, service.RunContext{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := service.MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestClusterByteIdentity is the tentpole pin: for every job kind, the
// bytes served through the coordinator (sharded across the fleet or
// proxied to a ring owner) equal the bytes a single worker serves equal
// the bytes of a direct library run. The coordinator goes first: had a
// worker already cached a parent result, the coordinator could fill it
// from that worker instead of sharding.
func TestClusterByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full campaigns across an in-process fleet")
	}
	tc := startCluster(t, workerOpts{n: 3})
	for kind, specJSON := range clusterGoldenSpecs {
		t.Run(kind, func(t *testing.T) {
			golden := directGolden(t, specJSON)
			viaCoord := awaitResult(t, tc.coordTS.URL, submitJob(t, tc.coordTS.URL, specJSON))
			if !bytes.Equal(viaCoord, golden) {
				t.Fatalf("coordinator bytes (%d) differ from direct run (%d)", len(viaCoord), len(golden))
			}
			viaWorker := awaitResult(t, tc.servers[0].URL, submitJob(t, tc.servers[0].URL, specJSON))
			if !bytes.Equal(viaWorker, golden) {
				t.Fatalf("single-worker bytes (%d) differ from direct run (%d)", len(viaWorker), len(golden))
			}
		})
	}
	// Every kind over the threshold was sharded, none answered from a
	// peer's cache.
	scrape := scrapeOwn(t, tc)
	for series, want := range map[string]string{
		"sinet_cluster_shard_jobs_total": "4",
		"sinet_peer_cache_fills_total":   "0",
	} {
		if got := scrapeValue(scrape, series); got != want {
			t.Errorf("%s = %q, want %s", series, got, want)
		}
	}
	// The sharded kinds must actually have fanned out: at least two
	// workers simulated something.
	busy := 0
	for _, w := range tc.workers {
		if w.Stats().Simulations > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("shard fan-out touched %d workers, want >= 2", busy)
	}
}

// TestClusterProxiedSSE pins that event streams of proxied jobs flow
// through the coordinator: a late subscriber to a finished job receives
// its terminal snapshot event.
func TestClusterProxiedSSE(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full campaign")
	}
	tc := startCluster(t, workerOpts{n: 2})
	spec := clusterGoldenSpecs["passive"] // under threshold: proxied
	id := submitJob(t, tc.coordTS.URL, spec)
	awaitResult(t, tc.coordTS.URL, id)
	resp, err := http.Get(tc.coordTS.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"state":"done"`) {
		t.Fatalf("terminal snapshot event missing from proxied stream: %s", body)
	}
}

// lockedBuffer is a bytes.Buffer safe for concurrent writes and reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestClusterWorkerDeathFailover is the availability pin: a worker that
// goes dark while holding a shard costs a failover, not the campaign.
// One worker wedges on the first shard-0 attempt; once the coordinator's
// long poll of that shard is pending there, the test kills the worker's
// listener. The pending poll fails, the next ones find no listener, and
// after maxPollFailures of them the coordinator re-runs the shard on a
// surviving peer, finishing with bytes identical to a direct run.
func TestClusterWorkerDeathFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full campaigns and waits out failover backoffs")
	}
	var wedged atomic.Bool
	var wedgedIdx atomic.Int32
	gotWedge := make(chan struct{})
	log := newWorkerLog()
	var logs lockedBuffer
	tc := startCluster(t, workerOpts{
		n:    2,
		wrap: log.wrap,
		coordCfg: func(c *Config) {
			c.Logger = slog.New(slog.NewTextHandler(&logs, nil))
		},
		runner: func(i int) service.RunnerFunc {
			return func(ctx context.Context, spec *service.JobSpec, rc service.RunContext) (any, error) {
				if spec.Shard != nil && spec.Shard.Index == 0 && wedged.CompareAndSwap(false, true) {
					wedgedIdx.Store(int32(i))
					close(gotWedge)
					<-ctx.Done() // hold the shard hostage until the listener dies
					return nil, ctx.Err()
				}
				return service.Run(ctx, spec, rc)
			}
		},
	})
	spec := clusterGoldenSpecs["coverage"] // 4 units, threshold 3: 2 shards
	golden := directGolden(t, spec)
	id := submitJob(t, tc.coordTS.URL, spec)

	select {
	case <-gotWedge:
	case <-time.After(30 * time.Second):
		t.Fatal("no worker ever picked up shard 0")
	}
	dead := int(wedgedIdx.Load())
	for log.pendingOn(dead) == 0 {
		<-log.polls // until a long poll is pending on the wedged worker
	}
	// Kill the wedged worker's listener: its pending status poll fails,
	// and the coordinator must move the shard to the survivor.
	tc.servers[dead].CloseClientConnections()
	tc.servers[dead].Close()

	data := awaitResult(t, tc.coordTS.URL, id)
	if !bytes.Equal(data, golden) {
		t.Fatalf("post-failover bytes (%d) differ from direct run (%d)", len(data), len(golden))
	}
	if !strings.Contains(logs.String(), "stopped answering") {
		t.Fatalf("the shard did not fail over by the poll-failure rule:\n%s", logs.String())
	}
	scrape := scrapeOwn(t, tc)
	if !strings.Contains(scrape, "sinet_cluster_failovers_total") {
		t.Fatal("failover metric missing from scrape")
	}
	for _, line := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(line, "sinet_cluster_failovers_total ") && strings.HasSuffix(line, " 0") {
			t.Fatalf("failover not counted: %s", line)
		}
	}
}

// scrapeValue returns the value of an unlabelled series in a text
// exposition ("" when the series is absent).
func scrapeValue(scrape, series string) string {
	for _, line := range strings.Split(scrape, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return v
		}
	}
	return ""
}

func scrapeOwn(t *testing.T, tc *testCluster) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tc.registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestClusterRoutesEvictLeastRecentlyUsed: the coordinator keeps at most
// maxRoutes proxied-job routes and drops the least recently used. A job
// a client keeps polling still proxies to its worker after maxRoutes
// later submits; a job nobody asked for answers 404 once they pushed
// its route out. The fake worker accepts every submit under a fresh ID
// and reports every job running.
func TestClusterRoutesEvictLeastRecentlyUsed(t *testing.T) {
	var submits atomic.Int32
	tc := startCluster(t, workerOpts{n: 1, wrap: func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id, isJob := strings.CutPrefix(r.URL.Path, "/v1/jobs/")
			switch {
			case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusAccepted)
				fmt.Fprintf(w, `{"id":"w%d","state":"queued"}`, submits.Add(1))
			case r.Method == http.MethodGet && isJob:
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprintf(w, `{"id":%q,"state":"running"}`, id)
			default:
				h.ServeHTTP(w, r)
			}
		})
	}})
	spec := clusterGoldenSpecs["passive"] // under threshold: proxied
	polled, idle := submitJob(t, tc.coordTS.URL, spec), submitJob(t, tc.coordTS.URL, spec)
	status := func(id string) int {
		resp, err := http.Get(tc.coordTS.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v service.JobView
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || v.ID != id || v.State != service.StateRunning {
				t.Fatalf("status of %s answered %+v (%v), want the worker's running view", id, v, err)
			}
		}
		return resp.StatusCode
	}
	for i := 0; i < maxRoutes; i++ {
		if i%(maxRoutes/4) == 0 && status(polled) != http.StatusOK {
			t.Fatalf("polled job %s lost its route after %d later submits", polled, i)
		}
		submitJob(t, tc.coordTS.URL, spec)
	}
	if code := status(polled); code != http.StatusOK {
		t.Fatalf("polled job %s answered %d after %d later submits, want 200 from its worker", polled, code, maxRoutes)
	}
	if code := status(idle); code != http.StatusNotFound {
		t.Fatalf("unpolled job %s answered %d after %d later submits, want 404", idle, code, maxRoutes)
	}
}

// TestClusterRetryAfterPropagation is the regression pin for pushback
// hints: when the owning worker rejects with 429, the coordinator's
// response carries that worker's Retry-After value — not an invented
// constant.
func TestClusterRetryAfterPropagation(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	tc := startCluster(t, workerOpts{
		n: 1,
		runner: func(int) service.RunnerFunc {
			return func(ctx context.Context, spec *service.JobSpec, rc service.RunContext) (any, error) {
				select {
				case <-release:
				case <-ctx.Done():
				}
				return nil, ctx.Err()
			}
		},
		cfg: func(_ int, c *service.Config) {
			c.Workers = 1
			c.QueueDepth = 1
			c.RetryAfter = 7 * time.Second
		},
	})
	// Fill the worker: one job running (blocked), one occupying the
	// single queue slot.
	submitJob(t, tc.servers[0].URL, `{"kind":"passive","passive":{"seed":1,"sites":["HK"],"constellations":["Tianqi"]}}`)
	deadline := time.Now().Add(10 * time.Second)
	for tc.workers[0].Stats().QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		resp, err := http.Post(tc.servers[0].URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"kind":"passive","passive":{"seed":2,"sites":["HK"],"constellations":["Tianqi"]}}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		time.Sleep(10 * time.Millisecond)
	}
	// A third spec proxied through the coordinator must bounce with the
	// worker's own hint.
	resp, err := http.Post(tc.coordTS.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"passive","passive":{"seed":3,"sites":["HK"],"constellations":["Tianqi"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("coordinator answered %d (%s), want 429", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("coordinator Retry-After = %q, want the worker's \"7\"", got)
	}
}

// TestPeerCacheFill pins the peer-filled cache: a worker missing a key
// locally consults the key's ring owner and finishes the job with the
// owner's bytes instead of recomputing.
func TestPeerCacheFill(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full campaign")
	}
	// Two workers whose CacheFill consults the other via a shared ring.
	// The ring needs both URLs before the servers exist, so the fill
	// function resolves through a late-bound pointer.
	var ring atomic.Pointer[Ring]
	urls := make([]string, 2)
	var workers []*service.Server
	var servers []*httptest.Server
	for i := 0; i < 2; i++ {
		i := i
		srv, err := service.New(service.Config{
			Workers: 2, QueueDepth: 8, CacheBytes: 1 << 20,
			CacheFill: func(ctx context.Context, key service.Key) ([]byte, bool) {
				r := ring.Load()
				if r == nil {
					return nil, false
				}
				return PeerCacheFill(r, urls[i], nil)(ctx, key)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		workers = append(workers, srv)
		servers = append(servers, ts)
		urls[i] = ts.URL
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			_ = srv.Shutdown(ctx)
			cancel()
		})
	}
	ring.Store(NewRing(urls, 0))

	// Find a spec whose ring owner is worker 0 (ports are random, so
	// probe seeds until one lands there).
	specFor := func(seed int) string {
		return fmt.Sprintf(`{"kind":"passive","passive":{"seed":%d,"sites":["HK"],"constellations":["Tianqi"]}}`, seed)
	}
	chosen := ""
	for seed := 1; seed < 64; seed++ {
		var spec service.JobSpec
		if err := json.Unmarshal([]byte(specFor(seed)), &spec); err != nil {
			t.Fatal(err)
		}
		key, err := service.ConfigKey(&spec)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Load().Owner(string(key)) == urls[0] {
			chosen = specFor(seed)
			break
		}
	}
	if chosen == "" {
		t.Fatal("no probe seed hashed onto worker 0")
	}

	ownerBytes := awaitResult(t, urls[0], submitJob(t, urls[0], chosen))
	if workers[0].Stats().Simulations != 1 {
		t.Fatalf("owner simulations = %d, want 1", workers[0].Stats().Simulations)
	}
	peerBytes := awaitResult(t, urls[1], submitJob(t, urls[1], chosen))
	if !bytes.Equal(peerBytes, ownerBytes) {
		t.Fatal("peer-filled bytes differ from the owner's")
	}
	if got := workers[1].Stats().Simulations; got != 0 {
		t.Fatalf("peer simulated %d campaigns, want 0 (cache fill)", got)
	}
}

// TestReadyzSplit pins the liveness/readiness split: a draining server
// keeps answering /healthz 200 but fails /readyz with 503 and a
// Retry-After hint, so load balancers stop routing before the process
// exits.
func TestReadyzSplit(t *testing.T) {
	srv, err := service.New(service.Config{Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}
	if code, _ := status("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d before drain", code)
	}
	if code, _ := status("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d before drain", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if code, _ := status("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d after drain, liveness must survive draining", code)
	}
	code, after := status("/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d after drain, want 503", code)
	}
	if after == "" {
		t.Fatal("/readyz 503 carries no Retry-After hint")
	}
}

// TestClusterMetricsAggregation pins the cluster scrape contract: the
// coordinator's own series exist at zero before any traffic, and after a
// sharded campaign the scrape carries both the coordinator's shard
// counters and the workers' summed, renamed counters.
func TestClusterMetricsAggregation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full campaign")
	}
	oldTTL := scrapeTTL
	scrapeTTL = 0
	defer func() { scrapeTTL = oldTTL }()

	registries := make([]*obs.Registry, 2)
	tc := startCluster(t, workerOpts{
		n: 2,
		cfg: func(i int, c *service.Config) {
			registries[i] = obs.New()
			c.Metrics = registries[i]
		},
		coordCfg: func(c *Config) { c.MaxShards = 2 },
	})
	scrapeAll := func() string {
		resp, err := http.Get(tc.coordTS.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	first := scrapeAll()
	for _, want := range []string{
		"sinet_cluster_shard_jobs_total 0",
		"sinet_cluster_shard_fanout_total 0",
		"sinet_cluster_failovers_total 0",
		`sinet_cluster_proxied_total{code="502"} 0`,
		"sinet_cluster_peer_up{peer=",
		// aggregated from the (idle) workers' pre-registered series
		`sinet_cluster_admission_total{code="202"} 0`,
	} {
		if !strings.Contains(first, want) {
			t.Errorf("first scrape missing %q", want)
		}
	}

	// One sharded campaign: 22 backhaul units, threshold 3, 2 workers.
	id := submitJob(t, tc.coordTS.URL, clusterGoldenSpecs["backhaul"])
	awaitResult(t, tc.coordTS.URL, id)

	second := scrapeAll()
	for _, want := range []string{
		"sinet_cluster_shard_jobs_total 1",
		"sinet_cluster_shard_fanout_total 2",
		// the two shard executions, summed across the fleet
		"sinet_cluster_simulations_total 2",
	} {
		if !strings.Contains(second, want) {
			t.Errorf("post-campaign scrape missing %q", want)
		}
	}
}

// TestClusterScrapeSurvivesStalledWorker pins the worker scrape deadline:
// a worker that accepts /metrics and never answers costs the coordinator
// one scrapeTimeout, after which the coordinator serves its whole body,
// its own series included, without that worker.
func TestClusterScrapeSurvivesStalledWorker(t *testing.T) {
	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			select {
			case <-r.Context().Done():
			case <-release:
			}
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(stalled.Close)
	coord, err := New(Config{Peers: []string{stalled.URL}, Metrics: obs.New(), Local: service.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		coordTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = coord.Shutdown(ctx)
	})
	// Cleanups run last-in first-out: release the stalled handler before
	// closing the coordinator's listener, which waits for a scrape still
	// stuck on it.
	t.Cleanup(func() { close(release) })

	client := &http.Client{Timeout: scrapeTimeout + 3*time.Second}
	start := time.Now()
	resp, err := client.Get(coordTS.URL + "/metrics")
	if err != nil {
		t.Fatalf("scrape failed after %v: %v", time.Since(start), err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("scrape body broke off after %v: %v", time.Since(start), err)
	}
	for _, want := range []string{
		"sinet_cluster_shard_jobs_total 0",
		`sinet_cluster_peer_up{peer="` + stalled.URL + `"}`,
		`sinet_admission_total{code="202"} 0`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("scrape missing %q:\n%s", want, body)
		}
	}
}

// TestCoordinatorLocalFallback pins the no-fleet degradation: with every
// peer down, the coordinator computes submissions itself and the bytes
// still match a direct run.
func TestCoordinatorLocalFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full campaign")
	}
	tc := startCluster(t, workerOpts{n: 2})
	for _, ts := range tc.servers {
		ts.Close()
	}
	// Wait for the probes to notice the dark fleet.
	deadline := time.Now().Add(5 * time.Second)
	for tc.coord.readyPeerCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("probes never marked the dead workers down")
		}
		time.Sleep(10 * time.Millisecond)
	}
	spec := clusterGoldenSpecs["coverage"]
	golden := directGolden(t, spec)
	data := awaitResult(t, tc.coordTS.URL, submitJob(t, tc.coordTS.URL, spec))
	if !bytes.Equal(data, golden) {
		t.Fatal("local-fallback bytes differ from direct run")
	}
}

// TestNewRejectsCoordinatorHeartbeat pins that a coordinator runs no
// heartbeat watchdog: a sharded attempt reports nothing while its shards
// run remotely, so a watchdog would shoot down every sharded job.
func TestNewRejectsCoordinatorHeartbeat(t *testing.T) {
	_, err := New(Config{
		Peers: []string{"http://127.0.0.1:1"},
		Local: service.Config{HeartbeatTimeout: 200 * time.Millisecond},
	})
	if err == nil || !strings.Contains(err.Error(), "heartbeat watchdog") {
		t.Fatalf("New with Local.HeartbeatTimeout = %v, want a heartbeat watchdog error", err)
	}
}
