package sim

import (
	"context"
	"sync/atomic"
	"time"

	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/tracing"
)

// simMetrics bundles the fan-out telemetry so one atomic pointer covers
// install/uninstall: either every instrument is live or none is.
type simMetrics struct {
	tasks  *obs.Counter
	panics *obs.Counter
	phase  *obs.HistogramVec
}

// metrics is the process-wide installed telemetry (nil = uninstrumented).
var metrics atomic.Pointer[simMetrics]

// SetMetrics installs worker-pool telemetry into r:
//
//	sinet_sim_tasks_total    Phase work units executed
//	sinet_sim_panics_total   worker panics recovered into *PanicError
//	sinet_sim_phase_seconds  wall time of Phase runs, by phase (histogram)
//
// The installation is process-wide, matching orbit.SetMetrics. A nil r
// uninstalls. Telemetry never perturbs execution: counters are bumped
// after each work item completes and phase timing wraps the whole
// phase, so index assignment, RNG streams and merge order are
// untouched — the uninstrumented and instrumented runs are byte-identical.
func SetMetrics(r *obs.Registry) {
	if r == nil {
		metrics.Store(nil)
		return
	}
	metrics.Store(&simMetrics{
		tasks:  r.Counter("sinet_sim_tasks_total", "Work units executed by the Phase worker pool."),
		panics: r.Counter("sinet_sim_panics_total", "Worker panics recovered into attributed errors."),
		phase:  r.HistogramVec("sinet_sim_phase_seconds", "Wall time of named campaign phases.", "phase", obs.DurationBuckets),
	})
}

// now is the phase instrument's clock, a variable so tests can count reads.
var now = time.Now

// Phase runs one named campaign phase of n units, fn(i) for every i in
// [0, n), across up to GOMAXPROCS workers. It is the one fan-out and the
// one source of completion events: after each unit, progress (may be nil)
// hears progress(name, k, n), serialized and with k strictly increasing
// from 1 to n, so callers need no locking of their own.
//
// Every unit runs regardless of other units' failures. A panicking unit
// does not crash the fan-out: the panic is recovered into a *PanicError.
// The lowest-index error is returned, so the reported failure does not
// depend on goroutine scheduling. Determinism is the caller's contract: fn
// writes its result into an index-addressed slot and the caller merges the
// slots in a fixed order afterwards. Execution order across units is
// unspecified; with GOMAXPROCS=1 (or n ≤ 1) units run inline in index
// order.
//
// When telemetry is installed, Phase observes the phase's wall time into
// sinet_sim_phase_seconds{phase=name}; when ctx carries a tracer
// (tracing.NewContext, injected by the service layer once per job
// attempt) it also records the phase as a "phase:<name>" child span of
// ctx's current span, annotated with attrs plus the error, if any. Both
// observe after the fact: with neither instrument live not even the clock
// is read, so instrumented and uninstrumented runs stay byte-identical.
// Every phase span and phase sample in the codebase is recorded here.
func Phase(ctx context.Context, name string, n int, fn func(i int) error, progress func(phase string, completed, total int), attrs ...tracing.Attr) error {
	m := metrics.Load()
	tr, parent := tracing.FromContext(ctx)
	if m == nil && tr == nil {
		return forEach(name, n, fn, progress)
	}
	start := now()
	err := forEach(name, n, fn, progress)
	end := now()
	if m != nil {
		m.phase.With(name).Observe(end.Sub(start).Seconds())
	}
	if tr != nil {
		if err != nil {
			attrs = append(attrs, tracing.String("error", err.Error()))
		}
		tr.Record(parent, "phase:"+name, start, end, attrs...)
	}
	return err
}
