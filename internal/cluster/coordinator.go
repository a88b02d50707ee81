package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sinet-io/sinet/internal/lru"
	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/service"
	"github.com/sinet-io/sinet/internal/tracing"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Peers are the worker base URLs ("http://host:port") forming the
	// ring. Required, at least one.
	Peers []string
	// ShardThreshold is the checkpointable-unit count above which a
	// campaign splits into shards fanned across workers (default 16;
	// < 0 disables splitting).
	ShardThreshold int
	// MaxShards caps the fan-out of one campaign (default: number of
	// peers, at least 2).
	MaxShards int
	// ProbeInterval is the per-peer readiness probe cadence (default 1s).
	ProbeInterval time.Duration
	// Metrics receives the cluster telemetry and the coordinator's own
	// serving metrics, and enables the aggregated /metrics endpoint.
	Metrics *obs.Registry
	// Logger receives structured coordination logs. Nil logs nothing.
	Logger *slog.Logger
	// Tracer records the coordinator-side spans of every job timeline —
	// proxy hops, shard fanout, per-shard failover attempts, checkpoint
	// folds — and is installed into the embedded server as well, so one
	// ring buffer holds the whole coordinator-side story. New propagates
	// W3C traceparent on every worker hop either way; nil just records
	// nothing locally.
	Tracer *tracing.Tracer
	// Local configures the coordinator's embedded service.Server, which
	// owns sharded jobs (queue, SSE, journal, retry budget, cache) and
	// serves everything itself when the whole fleet is unreachable. Its
	// Runner and CacheFill are installed by New. Its HeartbeatTimeout
	// must stay 0: a sharded attempt reports no progress while its shards
	// run remotely, so a coordinator watchdog would shoot every one down.
	// Workers watch their own campaigns.
	Local service.Config
}

// Coordinator fronts a fleet of sinetd workers: single campaigns are
// proxied to their key's ring owner (failing over when the owner is
// down), oversized campaigns are split into deterministic shards fanned
// across the fleet and merged byte-identically, caches fill from ring
// owners, and worker telemetry aggregates into one scrape. The
// coordinator embeds a full service.Server for the jobs it owns, so
// clients see one uniform jobs API wherever the work actually ran.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	local   *service.Server
	localH  http.Handler
	client  *http.Client
	metrics *clusterMetrics
	logger  *slog.Logger
	tracer  *tracing.Tracer
	reqSeq  atomic.Uint64

	mu     sync.Mutex
	routes *lru.LRU[string, routeEntry] // proxied job ID -> owning peer + trace
	load   map[string]int               // peer -> in-flight coordinator-initiated work
	up     map[string]bool              // peer -> last probe verdict

	// stopping is canceled when Shutdown starts: it ends the peer probes
	// and releases the proxied status waits still pending on workers.
	stopping context.Context
	stop     context.CancelFunc
	probeWG  sync.WaitGroup

	scrape scrapeCache
}

// New builds and starts a coordinator: its embedded server's workers and
// its peer probes are running when New returns. Stop it with Shutdown.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: at least one peer is required")
	}
	if cfg.Local.HeartbeatTimeout > 0 {
		return nil, errors.New("cluster: a coordinator runs no heartbeat watchdog; set HeartbeatTimeout on the workers")
	}
	if cfg.ShardThreshold == 0 {
		cfg.ShardThreshold = 16
	}
	if cfg.MaxShards <= 0 {
		cfg.MaxShards = len(cfg.Peers)
		if cfg.MaxShards < 2 {
			cfg.MaxShards = 2
		}
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	c := &Coordinator{
		cfg:     cfg,
		ring:    NewRing(cfg.Peers, DefaultVNodes),
		client:  &http.Client{},
		metrics: newClusterMetrics(cfg.Metrics, cfg.Peers),
		logger:  cfg.Logger,
		tracer:  cfg.Tracer,
		routes:  lru.New[string, routeEntry](maxRoutes),
		load:    map[string]int{},
		up:      map[string]bool{},
	}
	local := cfg.Local
	local.Runner = c.clusterRunner
	local.Metrics = cfg.Metrics
	local.Logger = cfg.Logger
	local.Tracer = cfg.Tracer
	local.CacheFill = c.peerCacheFill
	srv, err := service.New(local)
	if err != nil {
		return nil, err
	}
	c.local = srv
	c.localH = srv.Handler()
	c.stopping, c.stop = context.WithCancel(context.Background())
	for _, peer := range cfg.Peers {
		c.probeWG.Add(1)
		go c.probe(peer)
	}
	return c, nil
}

// Shutdown stops the probes, releases pending proxied status waits and
// drains the embedded server.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.stop()
	c.probeWG.Wait()
	return c.local.Shutdown(ctx)
}

// probe loops one peer's readiness checks. The cadence is the configured
// interval plus a deterministic per-peer jitter (a named RNG stream, the
// PR 8 backoff pattern) so a large fleet's probes spread out instead of
// firing in lockstep.
func (c *Coordinator) probe(peer string) {
	defer c.probeWG.Done()
	rng := newJitterRNG("cluster/probe/" + peer)
	// The probe deadline floors at one second: a tight probe cadence
	// must not misread a merely slow worker as down.
	probeTimeout := c.cfg.ProbeInterval
	if probeTimeout < time.Second {
		probeTimeout = time.Second
	}
	for {
		start := time.Now()
		// The verdict is the status alone: a transport error leaves resp
		// nil, and the body is not read for anything.
		resp, _, _ := exchange(c.stopping, c.client, http.MethodGet, peer+"/readyz", nil, "", probeTimeout, 4096)
		up := resp != nil && resp.StatusCode == http.StatusOK
		latency := time.Since(start)
		c.setUp(peer, up)
		upValue := int64(0)
		if up {
			upValue = 1
		}
		c.metrics.peerUp[peer].Set(upValue)
		c.metrics.peerLatency[peer].Set(latency.Milliseconds())
		delay := c.cfg.ProbeInterval + time.Duration(rng.Float64()*float64(c.cfg.ProbeInterval)/4)
		select {
		case <-c.stopping.Done():
			return
		case <-time.After(delay):
		}
	}
}

func (c *Coordinator) setUp(peer string, up bool) {
	c.mu.Lock()
	was, known := c.up[peer]
	c.up[peer] = up
	c.mu.Unlock()
	if c.logger != nil && (!known || was != up) {
		c.logger.Info("peer readiness changed", slog.String("peer", peer), slog.Bool("up", up))
	}
}

// peerUp reports the last probe verdict; an unprobed peer counts as up
// so a freshly started coordinator doesn't refuse traffic for one probe
// interval.
func (c *Coordinator) peerUp(peer string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	up, known := c.up[peer]
	return !known || up
}

func (c *Coordinator) readyPeerCount() int {
	n := 0
	for _, p := range c.cfg.Peers {
		if c.peerUp(p) {
			n++
		}
	}
	return n
}

// loadOf reports a peer's in-flight coordinator-initiated work — the
// bounded-load signal.
func (c *Coordinator) loadOf(peer string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.load[peer]
}

func (c *Coordinator) addLoad(peer string, d int) {
	c.mu.Lock()
	c.load[peer] += d
	c.mu.Unlock()
}

// candidates orders the key's failover sequence for dispatch: the
// bounded-load placement first, then the rest of the ring sequence with
// ready peers ahead of peers whose last probe failed. Down peers stay in
// the list — probes can be stale, and a last-resort attempt against a
// "down" peer beats refusing the job.
func (c *Coordinator) candidates(key service.Key) []string {
	seq := c.ring.Sequence(string(key))
	first := c.ring.OwnerBounded(string(key), c.loadOf, loadFactor)
	ordered := make([]string, 0, len(seq))
	ordered = append(ordered, first)
	for pass := 0; pass < 2; pass++ {
		for _, p := range seq {
			if p == first {
				continue
			}
			if (pass == 0) == c.peerUp(p) {
				ordered = append(ordered, p)
			}
		}
	}
	return ordered
}

// routeEntry remembers where a proxied job went and which trace its
// timeline lives under, so status/result/cancel hops and stitched trace
// fetches follow the job to its worker.
type routeEntry struct {
	peer  string
	trace tracing.TraceID
}

// maxRoutes bounds the proxied-job routes a coordinator keeps. The
// coordinator never learns when a proxied job ends, so routes go least
// recently used first: a submit files its job's route and every status,
// result, events, cancel or trace request for the job refreshes it, so
// only a route nobody asked for over maxRoutes later proxied submits and
// lookups is dropped, and its job ID then answers 404 here.
const maxRoutes = 4096

// route returns where a proxied job went, marking its route most
// recently used.
func (c *Coordinator) route(id string) (routeEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.routes.Get(id)
}

// requestID returns the request's correlation ID: the client's own
// X-Request-Id when it sent one, else a coordinator-unique "c%06d".
func (c *Coordinator) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" {
		return id
	}
	return fmt.Sprintf("c%06d", c.reqSeq.Add(1))
}

// --- embedded-runner path ----------------------------------------------

// clusterRunner executes the jobs the coordinator owns: campaigns big
// enough to shard fan out across the fleet and merge locally; everything
// else (including every job when the fleet is unreachable) runs through
// the plain library. Either way the bytes equal a direct run's.
func (c *Coordinator) clusterRunner(ctx context.Context, spec *service.JobSpec, rc service.RunContext) (any, error) {
	if spec.Shard == nil {
		if n := service.ShardCount(spec, c.cfg.ShardThreshold, c.cfg.MaxShards); n >= 2 && c.readyPeerCount() > 0 {
			return c.runSharded(ctx, spec, n, rc)
		}
	}
	return service.Run(ctx, spec, rc)
}

// runSharded is the scatter-gather: split the campaign, run every shard
// on its ring owner concurrently, fold the returned unit snapshots into
// one resume point, and re-run the parent locally from it — every unit
// restores, none recompute, and the merged bytes are pinned identical to
// an unsharded run. A shard whose worker dies mid-flight fails over
// through the ring inside runRemote, so killing a worker mid-campaign
// delays the job rather than corrupting or losing it.
func (c *Coordinator) runSharded(ctx context.Context, spec *service.JobSpec, n int, rc service.RunContext) (any, error) {
	shards, err := service.SplitSpec(spec, n)
	if err != nil {
		return nil, err
	}
	// The fanout span nests under the owning job's attempt span (the
	// embedded server injected it into ctx); each shard gets a child span,
	// and failover attempts get their own spans inside runRemote — so a
	// worker death shows up on the timeline as a shard with attempt >= 2.
	ctx, fan := tracing.Start(ctx, "fanout", tracing.Int("shards", n), tracing.String("kind", spec.Kind))
	defer fan.End()
	c.metrics.shardJobs.Inc()
	c.metrics.shardFanout.Add(uint64(n))
	if c.logger != nil {
		c.logger.Info("campaign sharded", slog.String("kind", spec.Kind), slog.Int("shards", n))
	}
	var (
		progressMu sync.Mutex
		done       int
	)
	report := func() {
		if rc.Progress == nil {
			return
		}
		progressMu.Lock()
		done++
		rc.Progress("fanout", done, n)
		progressMu.Unlock()
	}
	blobs := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sctx, sp := tracing.Start(ctx, "shard", tracing.Int("shard", i), tracing.Int("count", n))
			defer sp.End()
			key, kerr := service.ConfigKey(shards[i])
			if kerr != nil {
				sp.SetError(kerr)
				errs[i] = kerr
				return
			}
			sp.SetAttr(tracing.String("key", key.Short()))
			blobs[i], errs[i] = c.runRemote(sctx, shards[i], key)
			if errs[i] != nil {
				sp.SetError(errs[i])
				return
			}
			sp.SetAttr(tracing.Int("bytes", len(blobs[i])))
			report()
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			err := fmt.Errorf("cluster: shard %d/%d: %w", i, n, e)
			fan.SetError(err)
			return nil, err
		}
	}
	_, fold := tracing.Start(ctx, "checkpoint.fold", tracing.Int("shards", n))
	folded, err := service.FoldShards(blobs)
	if err != nil {
		fold.SetError(err)
		fold.End()
		fan.SetError(err)
		return nil, err
	}
	fold.SetAttr(tracing.Int("units", folded.Len()))
	fold.End()
	mctx, merge := tracing.Start(ctx, "merge", tracing.Int("units", folded.Len()))
	res, err := service.Run(mctx, spec, service.RunContext{
		Progress:   rc.Progress,
		Checkpoint: rc.Checkpoint,
		Resume:     folded,
		Memo:       rc.Memo,
	})
	if err != nil {
		merge.SetError(err)
		fan.SetError(err)
	}
	merge.End()
	return res, err
}

// peerCacheFill is the embedded server's CacheFill: on a local miss, ask
// the key's ring owner whether it already holds the bytes. Lookup-only
// (the owner's /v1/cache never computes), so fills can't cascade.
func (c *Coordinator) peerCacheFill(ctx context.Context, key service.Key) ([]byte, bool) {
	owner := c.ring.Owner(string(key))
	if owner == "" || !c.peerUp(owner) {
		return nil, false
	}
	data, ok := peerCacheLookup(ctx, c.client, owner, key, maxResultBytes)
	if ok {
		c.metrics.peerFills.Inc()
	}
	return data, ok
}

// peerCacheLookup fetches a key's cached bytes from one peer, if present
// and at most limit bytes long.
func peerCacheLookup(ctx context.Context, client *http.Client, peer string, key service.Key, limit int64) ([]byte, bool) {
	resp, data, err := exchange(ctx, client, http.MethodGet, peer+"/v1/cache?key="+url.QueryEscape(string(key)), nil, "", 10*time.Second, limit)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, false
	}
	return data, true
}

// PeerCacheFill builds a worker-side service.Config.CacheFill: on a
// local miss the worker consults the key's owner on the given ring,
// skipping itself (self is the advertised base URL as listed in peers).
func PeerCacheFill(ring *Ring, self string, client *http.Client) func(context.Context, service.Key) ([]byte, bool) {
	if client == nil {
		client = &http.Client{}
	}
	return func(ctx context.Context, key service.Key) ([]byte, bool) {
		owner := ring.Owner(string(key))
		if owner == "" || owner == self {
			return nil, false
		}
		return peerCacheLookup(ctx, client, owner, key, maxResultBytes)
	}
}

// --- HTTP layer ---------------------------------------------------------

// Handler returns the coordinator's HTTP API — the same surface as a
// worker's, plus cluster-wide stats and aggregated metrics:
//
//	POST   /v1/jobs              submit: sharded/fallback jobs run on the
//	                             embedded server, the rest proxy to the
//	                             key's ring owner with failover
//	GET    /v1/jobs/{id}[...]    status/result/events proxied to the job's
//	                             worker; coordinator-owned jobs serve local
//	DELETE /v1/jobs/{id}         cancel, routed the same way
//	GET    /v1/jobs/{id}/trace   stitched distributed timeline (see trace.go)
//	GET    /debug/traces         coordinator-side recent root spans
//	GET    /v1/stats             cluster stats (peers, load, local server)
//	GET    /v1/cache             embedded server's cache lookup
//	GET    /healthz, /readyz     coordinator liveness/readiness
//	GET    /metrics              own registry + summed worker counters
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", c.proxyJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", c.proxyJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", c.proxyJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", c.proxyJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", c.handleJobTrace)
	mux.HandleFunc("GET /debug/traces", c.localH.ServeHTTP)
	mux.HandleFunc("GET /v1/stats", c.handleStats)
	mux.HandleFunc("GET /v1/cache", c.localH.ServeHTTP)
	mux.HandleFunc("GET /healthz", c.localH.ServeHTTP)
	mux.HandleFunc("GET /readyz", c.localH.ServeHTTP)
	if c.cfg.Metrics != nil {
		mux.HandleFunc("GET /metrics", c.handleMetrics)
	}
	return mux
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec service.JobSpec
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode spec: %w", err))
		return
	}
	key, err := service.ConfigKey(&spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	canonical, err := json.Marshal(&spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// Sharded campaigns are coordinator-owned (the embedded server's
	// runner scatters and gathers); so is everything when no worker is
	// ready — the coordinator then simply computes itself. Single
	// campaigns with a live fleet proxy to their ring owner.
	wantsShard := service.ShardCount(&spec, c.cfg.ShardThreshold, c.cfg.MaxShards) >= 2
	if wantsShard || c.readyPeerCount() == 0 {
		c.serveLocal(w, r, canonical)
		return
	}
	c.proxySubmit(w, r, key, canonical)
}

// serveLocal replays the (canonicalized) submission into the embedded
// server's own handler, so admission control, Retry-After hints and
// response shapes stay identical to a worker's.
func (c *Coordinator) serveLocal(w http.ResponseWriter, r *http.Request, canonical []byte) {
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(canonical))
	r2.ContentLength = int64(len(canonical))
	c.localH.ServeHTTP(w, r2)
}

// proxySubmit forwards a submission along the key's failover sequence.
// Backpressure (429/503) from a worker is relayed as-is — including its
// Retry-After hint, which tells the client when that worker will take
// the job — rather than failed over, because a full owner queue is the
// signal to wait, not to stampede the next peer.
func (c *Coordinator) proxySubmit(w http.ResponseWriter, r *http.Request, key service.Key, canonical []byte) {
	parent := tracing.FromRequest(r)
	reqID := c.requestID(r)
	w.Header().Set("X-Request-Id", reqID)
	for i, peer := range c.candidates(key) {
		// Each forwarding attempt is its own span, child of the client's
		// traceparent (or a fresh trace): the worker's "job" root nests
		// under it, so the stitched timeline shows the proxy hop. When the
		// coordinator's tracer is off the client's traceparent still
		// passes through untouched.
		sp := c.tracer.StartChild(parent, "proxy.submit", tracing.String("peer", peer), tracing.String("key", key.Short()))
		hop := sp.Context()
		if !hop.Valid() {
			hop = parent
		}
		hctx := tracing.NewContext(r.Context(), c.tracer, hop)
		resp, body, err := exchange(hctx, c.client, http.MethodPost, peer+"/v1/jobs", canonical, reqID, 15*time.Second, 4<<20)
		if resp != nil {
			sp.SetAttr(tracing.Int("status", resp.StatusCode))
		}
		if err != nil {
			sp.SetError(err)
			sp.End()
			if resp != nil {
				continue // the worker answered, but its body broke off
			}
			if i > 0 {
				c.metrics.failovers.Inc()
			}
			if c.logger != nil {
				c.logger.Warn("submit proxy failed, trying next peer",
					slog.String("peer", peer), slog.String("error", err.Error()))
			}
			continue
		}
		sp.End()
		if resp.StatusCode == http.StatusAccepted {
			var accepted struct {
				ID string `json:"id"`
			}
			if json.Unmarshal(body, &accepted) == nil && accepted.ID != "" {
				c.mu.Lock()
				c.routes.Put(accepted.ID, routeEntry{peer: peer, trace: hop.TraceID}, 1)
				c.mu.Unlock()
			}
		}
		relay(w, resp, body)
		c.metrics.proxied.With(strconv.Itoa(resp.StatusCode)).Inc()
		return
	}
	c.metrics.proxied.With("502").Inc()
	writeError(w, http.StatusBadGateway, errors.New("cluster: no worker reachable for submission"))
}

// proxyJob routes a status/result/events/cancel request: jobs the
// coordinator proxied go to their recorded worker, everything else —
// coordinator-owned jobs and unknown IDs — to the embedded server. A
// status wait (?wait=) pending on a worker must not hold up the
// coordinator's drain: once Shutdown starts, the wait is abandoned and
// the worker asked again without it, so the client gets the job's
// current view at once, as the embedded server answers its own pending
// waits when it drains.
func (c *Coordinator) proxyJob(w http.ResponseWriter, r *http.Request) {
	ent, proxied := c.route(r.PathValue("id"))
	if !proxied {
		c.localH.ServeHTTP(w, r)
		return
	}
	reqID := c.requestID(r)
	w.Header().Set("X-Request-Id", reqID)
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	query := r.URL.Query()
	var stopWait func() bool
	if query.Has("wait") {
		stopWait = context.AfterFunc(c.stopping, cancel)
	}
	resp, err := c.forward(ctx, r, ent.peer, r.URL.RawQuery, reqID)
	if stopWait != nil && !stopWait() && r.Context().Err() == nil {
		if err == nil {
			resp.Body.Close()
		}
		query.Del("wait")
		resp, err = c.forward(r.Context(), r, ent.peer, query.Encode(), reqID)
	}
	if err != nil {
		c.metrics.proxied.With("502").Inc()
		writeError(w, http.StatusBadGateway, fmt.Errorf("cluster: worker %s unreachable: %w", ent.peer, err))
		return
	}
	defer resp.Body.Close()
	c.metrics.proxied.With(strconv.Itoa(resp.StatusCode)).Inc()
	copyHeader(w, resp)
	w.WriteHeader(resp.StatusCode)
	streamBody(w, resp.Body)
}

// forward sends a proxied job request on to the job's worker under ctx,
// with query as its query string.
func (c *Coordinator) forward(ctx context.Context, r *http.Request, peer, query, reqID string) (*http.Response, error) {
	u := peer + r.URL.Path
	if query != "" {
		u += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, u, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Request-Id", reqID)
	if sc := tracing.FromRequest(r); sc.Valid() {
		tracing.Inject(req, sc)
	}
	return c.client.Do(req)
}

// relay writes an already-read upstream response downstream, preserving
// status, content type and pushback hints.
func relay(w http.ResponseWriter, resp *http.Response, body []byte) {
	copyHeader(w, resp)
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

func copyHeader(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "Retry-After", "Cache-Control", "Connection", "X-Request-Id"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
}

// streamBody copies with per-chunk flushes so proxied SSE event streams
// reach the client as they happen, not when the stream closes.
func streamBody(w http.ResponseWriter, body io.Reader) {
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, err := body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// PeerStatus is one worker's view in cluster stats.
type PeerStatus struct {
	Peer string `json:"peer"`
	Up   bool   `json:"up"`
	Load int    `json:"load"`
}

// Stats is the coordinator's /v1/stats payload.
type Stats struct {
	Peers []PeerStatus  `json:"peers"`
	Local service.Stats `json:"local"`
}

func (c *Coordinator) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := Stats{Local: c.local.Stats()}
	for _, p := range c.cfg.Peers {
		st.Peers = append(st.Peers, PeerStatus{Peer: p, Up: c.peerUp(p), Load: c.loadOf(p)})
	}
	writeJSON(w, http.StatusOK, st)
}

// handleMetrics renders the coordinator's own registry followed by the
// fleet aggregate (summed, renamed worker counters — see scrape.go).
func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = c.cfg.Metrics.WritePrometheus(w)
	_, _ = w.Write(c.aggregateMetrics())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
