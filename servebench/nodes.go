package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/sinet-io/sinet/internal/cluster"
	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/service"
	"github.com/sinet-io/sinet/internal/tracing"
)

// node is one in-process daemon behind a loopback net/http server: a plain
// service.Server or a cluster.Coordinator, configured as sinetd configures
// it by default (metrics on, a 4096-span trace ring, a 256 MiB cache, a
// journal on disk).
type node struct {
	name    string
	svc     *service.Server
	coord   *cluster.Coordinator
	reg     *obs.Registry
	tracer  *tracing.Tracer
	journal string
	ln      net.Listener
	srv     *http.Server
	served  chan error
	base    string
}

func (n *node) serve() {
	if n.coord != nil {
		n.srv = &http.Server{Handler: n.coord.Handler()}
	} else {
		n.srv = &http.Server{Handler: n.svc.Handler()}
	}
	n.served = make(chan error, 1)
	go func() { n.served <- n.srv.Serve(n.ln) }()
}

func (n *node) shutdown(ctx context.Context) error {
	var errs []error
	if n.coord != nil {
		errs = append(errs, n.coord.Shutdown(ctx))
	} else if n.svc != nil {
		errs = append(errs, n.svc.Shutdown(ctx))
	}
	if n.srv != nil {
		errs = append(errs, n.srv.Shutdown(ctx))
		if err := <-n.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	} else if n.ln != nil {
		errs = append(errs, n.ln.Close())
	}
	return errors.Join(errs...)
}

// journalBytes is the on-disk size of the node's journal.
func (n *node) journalBytes() int64 {
	fi, err := os.Stat(n.journal)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// env is one running workload target: its daemons, the entry point
// clients talk to, and the client itself.
type env struct {
	nodes  []*node
	entry  *node
	client *http.Client
	dir    string // journal directory, removed on close
}

func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	// The coordinator (entry) drains before the workers it fans out to.
	for i := len(e.nodes) - 1; i >= 0; i-- {
		errs = append(errs, e.nodes[i].shutdown(ctx))
	}
	e.client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	errs = append(errs, os.RemoveAll(e.dir))
	return errors.Join(errs...)
}

// envOptions wires the benchmark's instruments into the daemons; the
// zero value starts them exactly as sinetd would.
type envOptions struct {
	workdir string
	probe   *probe // non-nil only in the traced run
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen on loopback: %w", err)
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// baseConfig is sinetd's default service configuration with the journal
// under dir.
func baseConfig(name, dir string, workers int, p *probe) (service.Config, *obs.Registry, error) {
	reg := obs.New()
	obs.RegisterRuntimeMetrics(reg)
	jdir := filepath.Join(dir, name)
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return service.Config{}, nil, fmt.Errorf("journal dir: %w", err)
	}
	cfg := service.Config{
		Workers:     workers,
		QueueDepth:  64,
		CacheBytes:  256 << 20,
		Metrics:     reg,
		Tracer:      tracing.New(name, tracing.DefaultCapacity),
		JournalPath: filepath.Join(jdir, "jobs.journal"),
	}
	if p != nil {
		cfg.Runner = p.runner(name, service.Run)
		cfg.JournalHook = p.journalHook
	}
	return cfg, reg, nil
}

// startEnv starts the daemons a workload needs: one server with nproc
// workers, or a coordinator fronting fleetWorkers single-worker servers
// that peer-fill their caches from the ring.
func startEnv(workload string, nproc int, opt envOptions) (*env, error) {
	dir, err := os.MkdirTemp(opt.workdir, "journal-")
	if err != nil {
		return nil, fmt.Errorf("create journal dir: %w", err)
	}
	e := &env{dir: dir, client: newClient(nproc)}
	if workload != wlFleet {
		ln, base, err := listen()
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		cfg, reg, err := baseConfig("server", dir, nproc, opt.probe)
		if err != nil {
			ln.Close()
			return nil, errors.Join(err, e.close())
		}
		svc, err := service.New(cfg)
		if err != nil {
			ln.Close()
			return nil, errors.Join(err, e.close())
		}
		n := &node{name: "server", svc: svc, reg: reg, tracer: cfg.Tracer, journal: cfg.JournalPath, ln: ln, base: base}
		n.serve()
		e.nodes = append(e.nodes, n)
		e.entry = n
		return e, nil
	}

	workers := make([]*node, fleetWorkers)
	peers := make([]string, fleetWorkers)
	for i := range workers {
		ln, base, err := listen()
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		workers[i] = &node{name: "worker" + strconv.Itoa(i+1), ln: ln, base: base}
		peers[i] = base
		e.nodes = append(e.nodes, workers[i])
	}
	ring := cluster.NewRing(peers, 0)
	for _, w := range workers {
		cfg, reg, err := baseConfig(w.name, dir, 1, opt.probe)
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		cfg.CacheFill = cluster.PeerCacheFill(ring, w.base, nil)
		if w.svc, err = service.New(cfg); err != nil {
			return nil, errors.Join(err, e.close())
		}
		w.reg, w.tracer, w.journal = reg, cfg.Tracer, cfg.JournalPath
		w.serve()
	}
	ln, base, err := listen()
	if err != nil {
		return nil, errors.Join(err, e.close())
	}
	local, reg, err := baseConfig("coordinator", dir, 1, nil)
	if err != nil {
		ln.Close()
		return nil, errors.Join(err, e.close())
	}
	if opt.probe != nil {
		// The coordinator installs its own runner; only the journal is hooked.
		local.JournalHook = opt.probe.journalHook
	}
	coord, err := cluster.New(cluster.Config{
		Peers:          peers,
		ShardThreshold: shardThreshold,
		Metrics:        reg,
		Tracer:         local.Tracer,
		Local:          local,
	})
	if err != nil {
		ln.Close()
		return nil, errors.Join(err, e.close())
	}
	c := &node{name: "coordinator", coord: coord, reg: reg, tracer: local.Tracer, journal: local.JournalPath, ln: ln, base: base}
	c.serve()
	e.nodes = append(e.nodes, c)
	e.entry = c
	return e, nil
}

// newClient is the load generator's HTTP client: at most nproc
// connections to any daemon.
func newClient(nproc int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     nproc,
		MaxIdleConnsPerHost: nproc,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// counters sums every series of each metric family the node's registry
// exposes, read through its Prometheus rendering (the /metrics body).
func (n *node) counters() map[string]float64 {
	var buf bytes.Buffer
	_ = n.reg.WritePrometheus(&buf)
	return parseProm(buf.String())
}

// parseProm sums a text-format scrape by family: labelled series add up,
// histogram buckets are skipped (their _sum and _count stay).
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out
}

// stats reads the node's GET /v1/stats; a coordinator reports its
// embedded server's.
func (n *node) stats(c *http.Client) (service.Stats, error) {
	if n.coord != nil {
		var st cluster.Stats
		err := getJSON(c, n.base+"/v1/stats", &st)
		return st.Local, err
	}
	var st service.Stats
	err := getJSON(c, n.base+"/v1/stats", &st)
	return st, err
}

// snapshot captures every counter the per-layer metrics difference over a
// measured window, summed over the env's daemons.
type snapshot struct {
	counters     map[string]float64
	spans        uint64
	journalBytes int64
	cache        service.CacheStats
	jobs         int
}

func (e *env) snapshot() (snapshot, error) {
	s := snapshot{counters: map[string]float64{}}
	for _, n := range e.nodes {
		for k, v := range n.counters() {
			s.counters[k] += v
		}
		s.spans += n.tracer.Recorded()
		s.journalBytes += n.journalBytes()
		st, err := n.stats(e.client)
		if err != nil {
			return s, fmt.Errorf("%s stats: %w", n.name, err)
		}
		s.cache.Hits += st.Cache.Hits
		s.cache.Misses += st.Cache.Misses
		s.cache.Evictions += st.Cache.Evictions
		for _, c := range st.JobsByState {
			s.jobs += c
		}
	}
	return s, nil
}
