// Command sinetd serves measurement campaigns over HTTP: submit passive,
// active, coverage or backhaul campaign specs as JSON jobs, follow their
// progress over SSE, and fetch content-addressed, cached results. With
// -coordinator it fronts a fleet of sinetd workers instead: jobs hash
// onto the worker ring, oversized campaigns shard across the fleet, and
// the fleet's telemetry aggregates into one scrape.
//
// Usage:
//
//	sinetd [-addr :8470] [-workers N] [-queue 64] [-cache-bytes 268435456]
//	       [-log-format text|json] [-pprof] [-retry-after 1s]
//	       [-journal-dir DIR] [-job-deadline 0] [-max-retries 0] [-heartbeat-timeout 0]
//	       [-peers URL,URL,... -advertise URL]   # worker: peer-filled cache
//	sinetd -coordinator -peers URL,URL,...       # cluster front door
//	       [-shard-threshold 16] [-max-shards 0]
//
// The API (see DESIGN.md "Serving architecture", "Observability" and
// "Cluster architecture"):
//
//	POST   /v1/jobs             GET /v1/jobs/{id}         GET /v1/jobs/{id}/result
//	DELETE /v1/jobs/{id}        GET /v1/jobs/{id}/events  GET /v1/stats
//	GET    /v1/cache            GET /healthz              GET /readyz
//	GET    /metrics             GET /debug/pprof/* (with -pprof)
//
// Logs are structured (log/slog) on stderr; -log-format json emits one
// JSON object per line for log shippers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/sinet-io/sinet/internal/cluster"
	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/service"
	"github.com/sinet-io/sinet/internal/tracing"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		slog.New(slog.NewTextHandler(os.Stderr, nil)).Error("sinetd exiting", "error", err)
		os.Exit(1)
	}
}

// newLogger builds the daemon's structured logger in the requested
// format. The text handler is for humans at a terminal; json is one
// object per line for shippers.
func newLogger(format string, w io.Writer) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	}
	return nil, fmt.Errorf("-log-format must be text or json, got %q", format)
}

// parsePeers splits a comma-separated worker list and insists every
// entry is a usable base URL.
func parsePeers(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	var peers []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(p), "/"))
		if p == "" {
			continue
		}
		if !strings.HasPrefix(p, "http://") && !strings.HasPrefix(p, "https://") {
			return nil, fmt.Errorf("-peers entry %q is not an http(s) base URL", p)
		}
		peers = append(peers, p)
	}
	return peers, nil
}

// run parses arguments and serves until shutdown. It is the single exit
// path: every failure returns an error instead of exiting mid-flight.
func run(args []string) error {
	fs := flag.NewFlagSet("sinetd", flag.ContinueOnError)
	addr := fs.String("addr", ":8470", "listen address")
	workers := fs.Int("workers", 0, "simulation worker count (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "queued-job bound; a full queue returns 429")
	cacheBytes := fs.Int64("cache-bytes", 256<<20, "result cache budget in bytes (0 disables caching)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	pprofOn := fs.Bool("pprof", false, "expose /debug/pprof/* profiling endpoints")
	journalDir := fs.String("journal-dir", "", "directory for the durable job journal (empty disables crash recovery)")
	jobDeadline := fs.Duration("job-deadline", 0, "per-attempt wall-clock deadline (0 disables)")
	maxRetries := fs.Int("max-retries", 0, "retry budget for retryable job failures")
	heartbeat := fs.Duration("heartbeat-timeout", 0, "cancel and retry attempts reporting no progress for this long (0 disables; workers only)")
	retryAfter := fs.Duration("retry-after", 0, "Retry-After hint on 429/503 responses (0 = 1s)")
	coordinator := fs.Bool("coordinator", false, "run as cluster coordinator fronting the -peers workers")
	peersFlag := fs.String("peers", "", "comma-separated worker base URLs: the fleet (coordinator) or the cache ring (worker)")
	advertise := fs.String("advertise", "", "this worker's own base URL as it appears in -peers (worker mode)")
	shardThreshold := fs.Int("shard-threshold", 16, "campaign unit count above which the coordinator shards jobs across workers (-1 disables)")
	maxShards := fs.Int("max-shards", 0, "cap on one campaign's shard fan-out (0 = number of peers)")
	traceBuffer := fs.Int("trace-buffer", tracing.DefaultCapacity, "in-process span ring capacity for /debug/traces (0 disables tracing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d", *workers)
	}
	if *queue <= 0 {
		return fmt.Errorf("-queue must be positive, got %d", *queue)
	}
	if *cacheBytes < 0 {
		return fmt.Errorf("-cache-bytes must be non-negative, got %d", *cacheBytes)
	}
	if *drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive, got %v", *drainTimeout)
	}
	if *jobDeadline < 0 {
		return fmt.Errorf("-job-deadline must be non-negative, got %v", *jobDeadline)
	}
	if *maxRetries < 0 {
		return fmt.Errorf("-max-retries must be non-negative, got %d", *maxRetries)
	}
	if *heartbeat < 0 {
		return fmt.Errorf("-heartbeat-timeout must be non-negative, got %v", *heartbeat)
	}
	if *retryAfter < 0 {
		return fmt.Errorf("-retry-after must be non-negative, got %v", *retryAfter)
	}
	if *maxShards < 0 {
		return fmt.Errorf("-max-shards must be non-negative, got %d", *maxShards)
	}
	if *traceBuffer < 0 {
		return fmt.Errorf("-trace-buffer must be non-negative, got %d", *traceBuffer)
	}
	peers, err := parsePeers(*peersFlag)
	if err != nil {
		return err
	}
	if *coordinator && len(peers) == 0 {
		return errors.New("-coordinator requires a -peers worker list")
	}
	if *coordinator && *heartbeat > 0 {
		return errors.New("-heartbeat-timeout applies to workers, not to a -coordinator")
	}
	if *advertise != "" && len(peers) == 0 {
		return errors.New("-advertise only makes sense with -peers")
	}
	logger, err := newLogger(*logFormat, os.Stderr)
	if err != nil {
		return err
	}

	cfg := service.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheBytes:       *cacheBytes,
		Metrics:          obs.New(),
		Logger:           logger,
		JobDeadline:      *jobDeadline,
		MaxRetries:       *maxRetries,
		HeartbeatTimeout: *heartbeat,
		RetryAfter:       *retryAfter,
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	obs.RegisterRuntimeMetrics(cfg.Metrics)
	// The tracer's service name tells stitched timelines which process a
	// span ran in: the coordinator is "coordinator", a worker identifies
	// as its ring identity (-advertise) when it has one, else by pid.
	if *traceBuffer > 0 {
		identity := fmt.Sprintf("worker:%d", os.Getpid())
		if *coordinator {
			identity = "coordinator"
		} else if *advertise != "" {
			identity = "worker:" + strings.TrimSuffix(*advertise, "/")
		}
		cfg.Tracer = tracing.New(identity, *traceBuffer)
	}
	if *journalDir != "" {
		if err := os.MkdirAll(*journalDir, 0o755); err != nil {
			return fmt.Errorf("-journal-dir: %w", err)
		}
		cfg.JournalPath = filepath.Join(*journalDir, "jobs.journal")
	}

	if *coordinator {
		ccfg := cluster.Config{
			Peers:          peers,
			ShardThreshold: *shardThreshold,
			MaxShards:      *maxShards,
			Metrics:        cfg.Metrics,
			Logger:         logger,
			Tracer:         cfg.Tracer,
			Local:          cfg,
		}
		build := func() (http.Handler, func(context.Context) error, []any, error) {
			coord, err := cluster.New(ccfg)
			if err != nil {
				return nil, nil, nil, err
			}
			fields := []any{
				"mode", "coordinator",
				"peers", len(peers),
				"shard_threshold", *shardThreshold,
				"workers", cfg.Workers,
				"queue", cfg.QueueDepth,
			}
			return coord.Handler(), coord.Shutdown, fields, nil
		}
		return serve(*addr, build, *drainTimeout, *pprofOn, logger)
	}

	// Worker mode: with a peer ring and a self identity, cache misses
	// consult the key's ring owner before computing.
	if len(peers) > 0 && *advertise != "" {
		self := strings.TrimSuffix(*advertise, "/")
		cfg.CacheFill = cluster.PeerCacheFill(cluster.NewRing(peers, 0), self, nil)
	}
	build := func() (http.Handler, func(context.Context) error, []any, error) {
		svc, err := service.New(cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		fields := []any{
			"gomaxprocs", runtime.GOMAXPROCS(0),
			"workers", cfg.Workers,
			"queue", cfg.QueueDepth,
			"cache_bytes", cfg.CacheBytes,
			"peers", len(peers),
		}
		return svc.Handler(), svc.Shutdown, fields, nil
	}
	return serve(*addr, build, *drainTimeout, *pprofOn, logger)
}

// bootHandler answers while the real handler is still under
// construction — notably during journal replay, which happens inside
// service.New and can take a while on a big journal. The process is
// alive (/healthz 200) but not ready: /readyz and every API route answer
// 503 with a Retry-After hint, so load balancers hold traffic without
// declaring the process dead.
func bootHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "starting: journal replay in progress", http.StatusServiceUnavailable)
	})
	return mux
}

// serve binds the listener first, answers with bootHandler while build
// constructs the real handler (journal replay, probe startup), then
// swaps it in and announces readiness. It runs until SIGINT/SIGTERM and
// drains gracefully: refuse new work, cancel queued and running jobs,
// stop the listener. build returns the handler, its drain function and
// extra fields for the startup log line.
func serve(addr string, build func() (http.Handler, func(context.Context) error, []any, error), drainTimeout time.Duration, pprofOn bool, logger *slog.Logger) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	var current atomic.Pointer[http.Handler]
	boot := bootHandler()
	current.Store(&boot)
	httpSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*current.Load()).ServeHTTP(w, r)
	})}

	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	handler, shutdown, fields, err := build()
	if err != nil {
		_ = httpSrv.Close()
		<-errCh
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/", handler)
	if pprofOn {
		// Profiling is opt-in: the endpoints expose heap contents and
		// stack traces, so they stay off unless explicitly requested.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	var real http.Handler = mux
	current.Store(&real)
	logger.Info("sinetd listening", append([]any{
		"addr", ln.Addr().String(),
		"version", obs.Version(),
		"pprof", pprofOn,
	}, fields...)...)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logger.Info("signal received, draining", "signal", sig.String())
	case err := <-errCh:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Order matters: drain the service first so in-flight HTTP polls see
	// jobs reach their canceled terminal states, then close the listener.
	if err := shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	logger.Info("drained cleanly")
	return <-errCh
}
