package cluster

import (
	"github.com/sinet-io/sinet/internal/obs"
)

// clusterMetrics is the coordinator's own telemetry (the aggregated
// worker counters are rendered separately, see scrape.go), built once in
// New. Without a registry every instrument is nil and no-ops, so call
// sites use them directly. Per-peer gauges are resolved once, keyed by
// peer; proxied responses stay a vec because upstream codes are
// open-ended.
type clusterMetrics struct {
	peerUp      map[string]*obs.Gauge // 1 when the peer's last probe succeeded
	peerLatency map[string]*obs.Gauge // last probe round trip, milliseconds
	proxied     *obs.CounterVec       // proxied requests by upstream response code
	shardJobs   *obs.Counter          // campaigns split across the fleet
	shardFanout *obs.Counter          // shard sub-jobs dispatched
	failovers   *obs.Counter          // requests moved past a dead owner
	peerFills   *obs.Counter          // cache fills answered by a ring owner
}

// newClusterMetrics registers the cluster metrics (nil r yields nil
// instruments) and pre-creates every known series — peers and response
// codes — so the very first scrape already exposes them at zero.
func newClusterMetrics(r *obs.Registry, peers []string) *clusterMetrics {
	peerUp := r.GaugeVec("sinet_cluster_peer_up", "1 when the worker's last readiness probe succeeded, else 0.", "peer")
	peerLatency := r.GaugeVec("sinet_cluster_peer_latency_ms", "Round-trip time of the worker's last readiness probe, in milliseconds.", "peer")
	m := &clusterMetrics{
		peerUp:      map[string]*obs.Gauge{},
		peerLatency: map[string]*obs.Gauge{},
		proxied:     r.CounterVec("sinet_cluster_proxied_total", "Requests proxied to workers, by upstream response code.", "code"),
		shardJobs:   r.Counter("sinet_cluster_shard_jobs_total", "Campaigns split into shards and fanned across the fleet."),
		shardFanout: r.Counter("sinet_cluster_shard_fanout_total", "Shard sub-jobs dispatched to workers."),
		failovers:   r.Counter("sinet_cluster_failovers_total", "Requests failed over past an unresponsive ring owner."),
		peerFills:   r.Counter("sinet_cluster_peer_cache_lookups_total", "Cache lookups answered by a key's ring owner."),
	}
	for _, p := range peers {
		m.peerUp[p] = peerUp.With(p)
		m.peerLatency[p] = peerLatency.With(p)
	}
	for _, code := range []string{"202", "404", "429", "500", "502", "503"} {
		m.proxied.With(code)
	}
	return m
}
