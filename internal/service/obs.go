package service

import (
	"strconv"

	"github.com/sinet-io/sinet/internal/obs"
)

// serverMetrics is the serving layer's telemetry, created once in New
// when a registry is configured. A nil *serverMetrics (no registry) makes
// every observe method a no-op, keeping the job path allocation-free.
type serverMetrics struct {
	admission   *obs.CounterVec   // HTTP submissions by response code
	dedup       *obs.Counter      // singleflight attachments
	simulations *obs.Counter      // campaigns handed to the runner
	finished    *obs.CounterVec   // terminal jobs by state
	campaign    *obs.HistogramVec // campaign wall time by kind
	sse         *obs.Gauge        // live event-stream subscribers
	replayed    *obs.Counter      // jobs re-admitted from the journal
	retries     *obs.Counter      // retry attempts scheduled
	journalErrs *obs.Counter      // failed journal appends
	stale       *obs.Counter      // attempts shot down by the watchdog
	peerFills   *obs.Counter      // jobs finished with peer-cache bytes
}

// newServerMetrics registers the serving metrics into r and samples the
// server's authoritative state (jobs map, queue channel, cache) through
// GaugeFuncs, so gauges can never drift from the structures they report
// on. Known label values are pre-created so a scrape taken before any
// traffic already exposes every series a dashboard will want.
func newServerMetrics(r *obs.Registry, s *Server) *serverMetrics {
	if r == nil {
		return nil
	}
	m := &serverMetrics{
		admission:   r.CounterVec("sinet_admission_total", "Job submissions over HTTP by response code.", "code"),
		dedup:       r.Counter("sinet_dedup_total", "Submissions attached to an identical in-flight job (singleflight)."),
		simulations: r.Counter("sinet_simulations_total", "Campaigns handed to the simulation runner."),
		finished:    r.CounterVec("sinet_jobs_finished_total", "Jobs reaching a terminal state, by state.", "state"),
		campaign:    r.HistogramVec("sinet_campaign_seconds", "Campaign wall time from worker pickup to terminal state, by kind.", "kind", obs.DurationBuckets),
		sse:         r.Gauge("sinet_sse_subscribers", "Open SSE progress streams."),
		replayed:    r.Counter("sinet_journal_replayed_jobs_total", "Incomplete jobs re-admitted from the journal at startup."),
		retries:     r.Counter("sinet_job_retries_total", "Job retry attempts scheduled after retryable failures."),
		journalErrs: r.Counter("sinet_journal_errors_total", "Journal appends that failed (durability degraded, job unaffected)."),
		stale:       r.Counter("sinet_job_heartbeat_stale_total", "Running attempts cancelled by the heartbeat watchdog."),
		peerFills:   r.Counter("sinet_peer_cache_fills_total", "Jobs finished with result bytes fetched from a peer's cache."),
	}
	for _, code := range []int{202, 400, 429, 500, 503} {
		m.admission.With(strconv.Itoa(code))
	}
	for _, state := range []State{StateDone, StateFailed, StateCanceled} {
		m.finished.With(string(state))
	}
	for _, k := range kinds {
		m.campaign.With(k.name)
	}

	r.GaugeFunc("sinet_jobs_queued", "Jobs waiting for a worker.", func() float64 {
		return float64(s.countJobs(StateQueued))
	})
	r.GaugeFunc("sinet_jobs_running", "Jobs executing on a worker.", func() float64 {
		return float64(s.countJobs(StateRunning))
	})
	r.GaugeFunc("sinet_queue_depth", "Occupied slots in the admission queue.", func() float64 {
		return float64(len(s.queue))
	})
	r.GaugeFunc("sinet_queue_capacity", "Configured admission queue bound.", func() float64 {
		return float64(cap(s.queue))
	})
	s.cache.instrument(r)
	return m
}

// observeAdmission counts one HTTP submission outcome.
func (m *serverMetrics) observeAdmission(code int) {
	if m != nil {
		m.admission.With(strconv.Itoa(code)).Inc()
	}
}

// observeDedup counts one singleflight attachment.
func (m *serverMetrics) observeDedup() {
	if m != nil {
		m.dedup.Inc()
	}
}

// observeRun counts one campaign handed to the runner.
func (m *serverMetrics) observeRun() {
	if m != nil {
		m.simulations.Inc()
	}
}

// observeFinished counts one terminal job and, for worker-executed jobs
// (seconds > 0), its wall time under the campaign-kind histogram.
func (m *serverMetrics) observeFinished(kind string, state State, seconds float64) {
	if m == nil {
		return
	}
	m.finished.With(string(state)).Inc()
	if seconds > 0 {
		m.campaign.With(kind).Observe(seconds)
	}
}

// observeReplayed counts one job re-admitted from the journal.
func (m *serverMetrics) observeReplayed() {
	if m != nil {
		m.replayed.Inc()
	}
}

// observeRetry counts one scheduled retry attempt.
func (m *serverMetrics) observeRetry() {
	if m != nil {
		m.retries.Inc()
	}
}

// observeJournalError counts one failed journal append.
func (m *serverMetrics) observeJournalError() {
	if m != nil {
		m.journalErrs.Inc()
	}
}

// observeStale counts one watchdog-cancelled attempt.
func (m *serverMetrics) observeStale() {
	if m != nil {
		m.stale.Inc()
	}
}

// observePeerFill counts one job answered with peer-cache bytes instead
// of a local simulation.
func (m *serverMetrics) observePeerFill() {
	if m != nil {
		m.peerFills.Inc()
	}
}

// sseConnect tracks one subscriber for the duration of its stream; the
// returned func must be deferred.
func (m *serverMetrics) sseConnect() func() {
	if m == nil {
		return func() {}
	}
	m.sse.Inc()
	return m.sse.Dec
}
