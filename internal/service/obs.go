package service

import (
	"strconv"

	"github.com/sinet-io/sinet/internal/obs"
)

// serverMetrics is the serving layer's telemetry, built once in New.
// Without a registry every instrument is nil, and nil instruments no-op
// by the obs contract, so call sites use them directly. Labelled series
// are resolved once into maps keyed by HTTP code, terminal state and
// kind: a job path never formats a label, takes a family lock or
// allocates to count.
type serverMetrics struct {
	admission   map[int]*obs.Counter      // HTTP submissions by response code
	dedup       *obs.Counter              // singleflight attachments
	simulations *obs.Counter              // campaigns handed to the runner
	finished    map[State]*obs.Counter    // terminal jobs by state
	campaign    map[string]*obs.Histogram // campaign wall time by kind
	sse         *obs.Gauge                // live event-stream subscribers
	replayed    *obs.Counter              // jobs re-admitted from the journal
	retries     *obs.Counter              // retry attempts scheduled
	journalErrs *obs.Counter              // failed journal appends
	stale       *obs.Counter              // attempts shot down by the watchdog
	peerFills   *obs.Counter              // jobs finished with peer-cache bytes
}

// newServerMetrics registers the serving metrics into r (nil r yields
// nil instruments) and samples the server's authoritative state (jobs
// map, queue channel, cache) through GaugeFuncs, so gauges can never
// drift from the structures they report on. Every label value a job can
// produce is pre-created, so a scrape taken before any traffic already
// exposes every series a dashboard will want.
func newServerMetrics(r *obs.Registry, s *Server) *serverMetrics {
	admission := r.CounterVec("sinet_admission_total", "Job submissions over HTTP by response code.", "code")
	finished := r.CounterVec("sinet_jobs_finished_total", "Jobs reaching a terminal state, by state.", "state")
	campaign := r.HistogramVec("sinet_campaign_seconds", "Campaign wall time from worker pickup to terminal state, by kind.", "kind", obs.DurationBuckets)
	m := &serverMetrics{
		admission:   map[int]*obs.Counter{},
		dedup:       r.Counter("sinet_dedup_total", "Submissions attached to an identical in-flight job (singleflight)."),
		simulations: r.Counter("sinet_simulations_total", "Campaigns handed to the simulation runner."),
		finished:    map[State]*obs.Counter{},
		campaign:    map[string]*obs.Histogram{},
		sse:         r.Gauge("sinet_sse_subscribers", "Open SSE progress streams."),
		replayed:    r.Counter("sinet_journal_replayed_jobs_total", "Incomplete jobs re-admitted from the journal at startup."),
		retries:     r.Counter("sinet_job_retries_total", "Job retry attempts scheduled after retryable failures."),
		journalErrs: r.Counter("sinet_journal_errors_total", "Journal appends that failed (durability degraded, job unaffected)."),
		stale:       r.Counter("sinet_job_heartbeat_stale_total", "Running attempts cancelled by the heartbeat watchdog."),
		peerFills:   r.Counter("sinet_peer_cache_fills_total", "Jobs finished with result bytes fetched from a peer's cache."),
	}
	for _, code := range []int{202, 400, 429, 500, 503} {
		m.admission[code] = admission.With(strconv.Itoa(code))
	}
	for _, state := range []State{StateDone, StateFailed, StateCanceled} {
		m.finished[state] = finished.With(string(state))
	}
	for _, k := range kinds {
		m.campaign[k.name] = campaign.With(k.name)
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

// observeFinished counts one terminal job and, for jobs a worker computed
// (seconds > 0), its wall time under the campaign-kind histogram.
func (m *serverMetrics) observeFinished(kind string, state State, seconds float64) {
	m.finished[state].Inc()
	if seconds > 0 {
		m.campaign[kind].Observe(seconds)
	}
}
