package netgraph

import (
	"sync/atomic"

	"github.com/sinet-io/sinet/internal/obs"
)

// graphMetrics bundles the topology/routing telemetry so one atomic
// pointer covers install/uninstall: either every instrument is live or
// none is.
type graphMetrics struct {
	builds     *obs.Counter
	edgesLive  *obs.Counter
	edgesDrop  *obs.Counter
	routes     *obs.Counter
	deliveries *obs.CounterVec
}

// metrics is the process-wide installed telemetry (nil = uninstrumented).
var metrics atomic.Pointer[graphMetrics]

// SetMetrics installs network-graph telemetry into r:
//
//	sinet_topology_builds_total       snapshots built
//	sinet_isl_edges_live_total        candidate ISLs live at build time
//	sinet_isl_edges_dropped_total     candidate ISLs failing a predicate
//	sinet_route_computations_total    per-snapshot delivery-search Dijkstra runs (mode="full")
//	sinet_deliveries_total            campaign deliveries, by policy (relay|store)
//
// The installation is process-wide, matching orbit.SetMetrics and
// sim.SetMetrics; a nil r uninstalls. Counters are bumped after the work
// they describe (batched per snapshot build), so instrumented and
// uninstrumented runs produce byte-identical graphs and routes.
func SetMetrics(r *obs.Registry) {
	if r == nil {
		metrics.Store(nil)
		return
	}
	m := &graphMetrics{
		builds:     r.Counter("sinet_topology_builds_total", "Network-graph snapshots built."),
		edgesLive:  r.Counter("sinet_isl_edges_live_total", "Candidate inter-satellite links live at snapshot build."),
		edgesDrop:  r.Counter("sinet_isl_edges_dropped_total", "Candidate inter-satellite links dropped by a connectivity predicate or churn."),
		routes:     r.CounterVec("sinet_route_computations_total", "Shortest-path computations, by mode.", "mode").With("full"),
		deliveries: r.CounterVec("sinet_deliveries_total", "Routing-campaign packet deliveries, by policy.", "policy"),
	}
	for _, policy := range []string{"relay", "store"} {
		m.deliveries.With(policy)
	}
	metrics.Store(m)
}

// observeSnapshot accounts one snapshot build with its edge census.
func observeSnapshot(live, dropped int) {
	m := metrics.Load()
	if m == nil {
		return
	}
	m.builds.Inc()
	m.edgesLive.Add(uint64(live))
	m.edgesDrop.Add(uint64(dropped))
}

// observeRoute accounts one per-snapshot Dijkstra run of a delivery search.
func observeRoute() {
	m := metrics.Load()
	if m == nil {
		return
	}
	m.routes.Inc()
}

// ObserveDelivery accounts one campaign delivery under the given policy
// ("relay" or "store"). Exported for the core routing campaign, which
// counts deliveries as it merges worker results.
func ObserveDelivery(policy string, n int) {
	m := metrics.Load()
	if m == nil || n <= 0 {
		return
	}
	m.deliveries.With(policy).Add(uint64(n))
}
