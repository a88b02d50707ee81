package core

import (
	"context"
	"time"

	"github.com/sinet-io/sinet/internal/backhaul"
	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/fault"
	"github.com/sinet-io/sinet/internal/netgraph"
	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/stats"
)

// Delivery policies of the routing campaign.
const (
	// PolicyStore delivers every packet store-and-forward: the satellite
	// holds it until its next fault-aware downlink window over the
	// operator ground segment (the paper's §2.3 baseline).
	PolicyStore = "store"
	// PolicyRelay delivers every packet over the time-varying network
	// graph: at each topology snapshot it may hop live inter-satellite
	// links toward any satellite in view of an up ground station.
	PolicyRelay = "relay"
	// PolicyCompare runs both policies on identical packets.
	PolicyCompare = "compare"
)

// RoutingConfig configures a backhaul-relay routing campaign: the
// store-and-forward-vs-ISL-relay comparison the paper could not measure
// on Tianqi's linkless constellation.
type RoutingConfig struct {
	// Seed drives every random stream (fault schedules).
	Seed int64
	// Start and Days bound the campaign window. Packets originate inside
	// the window; deliveries may drain during a 4 h grace period after it.
	Start time.Time
	Days  int
	// Constellation to route over; nil uses Tianqi.
	Constellation *constellation.Constellation
	// SnapshotStep is the topology cadence of the network graph
	// (default one minute).
	SnapshotStep time.Duration
	// MaxISLRangeKm is the ISL terminal range budget (default 5000 km).
	MaxISLRangeKm float64
	// HopProcessing is the per-hop switching delay (default 10 ms).
	HopProcessing time.Duration
	// PacketInterval is each satellite's packet cadence (default 30 min);
	// origins are staggered across satellites to avoid synchronized
	// bursts.
	PacketInterval time.Duration
	// Policy selects store, relay, or compare (the default).
	Policy string
	// ExactEphemeris and MaxInterpErrorKm mirror PassiveConfig: exact
	// SGP4 fallback vs bounded Hermite interpolation for the shared grid.
	ExactEphemeris   bool
	MaxInterpErrorKm float64
	// Faults injects drain-station churn (DrainMTBF/MTTR) and ISL link
	// churn (LinkMTBF/MTTR); nil simulates perfect infrastructure.
	Faults *fault.Config
	// RunContext observes the "ephemeris", "topology" and "packets"
	// phases. "packets" — one unit per satellite: its routed packets — is
	// the phase that checkpoints and shards; a shard run leaves the
	// topology and delivery summaries empty. "topology" runs only when
	// something reads the graph: the summary, unless the memo holds it,
	// and relay search for a packet unit neither the memo nor Resume
	// holds.
	RunContext `json:"-"`
}

func (c *RoutingConfig) setDefaults() {
	if c.Days <= 0 {
		c.Days = 1
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.SnapshotStep <= 0 {
		c.SnapshotStep = netgraph.DefaultSnapshotStep
	}
	if c.MaxISLRangeKm <= 0 {
		c.MaxISLRangeKm = netgraph.DefaultMaxISLRangeKm
	}
	if c.HopProcessing <= 0 {
		c.HopProcessing = netgraph.DefaultHopProcessing
	}
	if c.PacketInterval <= 0 {
		c.PacketInterval = 30 * time.Minute
	}
	if c.Policy == "" {
		c.Policy = PolicyCompare
	}
}

// RoutedPacket is one sensor packet's delivery record under both policies.
type RoutedPacket struct {
	NoradID int       `json:"norad_id"`
	Origin  time.Time `json:"origin"`

	// Store-and-forward outcome: delivered at the end of the first
	// fault-aware downlink window at or after the origin.
	StoreDelivered bool      `json:"store_delivered"`
	StoreAt        time.Time `json:"store_at"`

	// Relay outcome over the time-varying graph.
	RelayDelivered bool      `json:"relay_delivered"`
	RelayAt        time.Time `json:"relay_at"`
	RelayHops      int       `json:"relay_hops,omitempty"`     // edges traversed, downlink included
	RelayISLHops   int       `json:"relay_isl_hops,omitempty"` // satellite-to-satellite edges only
	RelayStation   int       `json:"relay_station"`            // draining station index, -1 if undelivered
	// RelayPath is the satellite chain the packet traversed, origin
	// first, as NORAD IDs; the final hop down to RelayStation is implied.
	RelayPath []int `json:"relay_path,omitempty"`
}

// DeliverySummary aggregates one policy's delivery-latency distribution.
// Latency quantiles are in seconds and zero when nothing was delivered.
type DeliverySummary struct {
	Policy    string  `json:"policy"`
	Generated int     `json:"generated"`
	Delivered int     `json:"delivered"`
	MeanSec   float64 `json:"mean_sec"`
	P10Sec    float64 `json:"p10_sec"`
	P50Sec    float64 `json:"p50_sec"`
	P90Sec    float64 `json:"p90_sec"`
	P99Sec    float64 `json:"p99_sec"`
	MeanHops  float64 `json:"mean_hops,omitempty"`
	MaxHops   int     `json:"max_hops,omitempty"`
}

// RoutingResult is a completed routing campaign.
type RoutingResult struct {
	Config        RoutingConfig   `json:"config"`
	Constellation string          `json:"constellation"`
	Snapshots     int             `json:"snapshots"`
	CandidateISLs int             `json:"candidate_isls"`
	MeanLiveISLs  float64         `json:"mean_live_isls"`
	Packets       []RoutedPacket  `json:"packets"`
	Store         DeliverySummary `json:"store"`
	Relay         DeliverySummary `json:"relay"`
}

// StoreLatenciesSec returns the store-and-forward delivery latencies in
// seconds, one per delivered packet.
func (r *RoutingResult) StoreLatenciesSec() []float64 {
	var out []float64
	for _, p := range r.Packets {
		if p.StoreDelivered {
			out = append(out, p.StoreAt.Sub(p.Origin).Seconds())
		}
	}
	return out
}

// RelayLatenciesSec returns the relay delivery latencies in seconds.
func (r *RoutingResult) RelayLatenciesSec() []float64 {
	var out []float64
	for _, p := range r.Packets {
		if p.RelayDelivered {
			out = append(out, p.RelayAt.Sub(p.Origin).Seconds())
		}
	}
	return out
}

// RunRouting executes a routing campaign.
func RunRouting(cfg RoutingConfig) (*RoutingResult, error) {
	return RunRoutingCtx(context.Background(), cfg)
}

// RunRoutingCtx is RunRouting with cooperative cancellation: a cancelled
// context aborts between work units with ctx.Err().
func RunRoutingCtx(ctx context.Context, cfg RoutingConfig) (*RoutingResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.setDefaults()
	cons := cfg.Constellation
	if cons == nil {
		c := constellation.Tianqi(cfg.Start)
		cons = &c
	}
	props, err := cons.Propagators()
	if err != nil {
		return nil, err
	}
	segment := backhaul.TianqiGroundSegment()
	end := cfg.Start.Add(time.Duration(cfg.Days) * 24 * time.Hour)
	horizon := end.Add(graceAfterEnd)

	// Phase 1: propagate the shared ephemeris rows.
	ephCfg := orbit.EphemerisConfig{
		ScanStep:         cfg.SnapshotStep,
		Exact:            cfg.ExactEphemeris,
		MaxInterpErrorKm: cfg.MaxInterpErrorKm,
	}
	grids, err := propagate(ctx, cfg.RunContext, cfg.Start, horizon, ephCfg, props)
	if err != nil {
		return nil, err
	}
	grid := grids[0]

	// Fault schedules are derived up front on named streams, so the same
	// seed and config always churn the same links and stations no matter
	// how the snapshot build is scheduled.
	drainFaults := cfg.Faults != nil && cfg.Faults.DrainMTBF > 0
	linkFaults := cfg.Faults != nil && cfg.Faults.LinkMTBF > 0
	var drainScheds []fault.Schedule
	drainUp := func(station int, at time.Time) bool { return true }
	if drainFaults {
		drainScheds = make([]fault.Schedule, len(segment.Stations))
		for i := range segment.Stations {
			drainScheds[i] = cfg.Faults.DrainSchedule(cfg.Seed, i, cfg.Start, horizon)
		}
		drainUp = func(station int, at time.Time) bool { return !drainScheds[station].Down(at) }
	}

	gcfg := netgraph.Config{
		SnapshotStep:    cfg.SnapshotStep,
		MaxISLRangeKm:   cfg.MaxISLRangeKm,
		HopProcessing:   cfg.HopProcessing,
		MinElevationRad: segment.MinElevationRad,
	}
	if drainScheds != nil {
		gcfg.StationUp = drainUp
	}

	// Phase 2, run only when something reads it: build the topology
	// snapshots in parallel.
	var graph *netgraph.Graph
	buildGraph := func() error {
		if graph != nil {
			return nil
		}
		g, err := buildTopology(ctx, cfg, grid, segment, horizon, gcfg, linkFaults)
		if err != nil {
			return err
		}
		graph = g
		return nil
	}

	// The seed reaches a routing job only through its drain and link
	// fault schedules. Without them the topology and every packet unit are
	// geometry, so the memo holds both: the topology as its three-number
	// summary, the packets as units.
	var topoKey memoKey
	var pktKey *keyInputs
	topoKeyed := false
	if cfg.Memo != nil && !drainFaults && !linkFaults {
		topoKey, topoKeyed = topologyInputs(kindTopology, props, cfg.Start, horizon, ephCfg, segment, gcfg).sum()
		pktKey = topologyInputs(kindPackets, props, cfg.Start, horizon, ephCfg, segment, gcfg)
		pktKey.time(end)
		pktKey.int(int64(cfg.PacketInterval))
		pktKey.str(cfg.Policy)
	}
	res := &RoutingResult{Config: cfg, Constellation: cons.Name}
	if cfg.Shard == nil {
		// A shard run's result is its units, so it skips the summary.
		var sum topologySummary
		held := false
		if topoKeyed {
			var v any
			if v, held = cfg.Memo.get(topoKey, kindTopology); held {
				sum = v.(topologySummary)
			}
		}
		if !held {
			if err := buildGraph(); err != nil {
				return nil, err
			}
			sum = summarize(graph)
			if topoKeyed {
				cfg.Memo.put(topoKey, sum, topologySummaryBytes)
			}
		}
		res.Snapshots, res.CandidateISLs, res.MeanLiveISLs = sum.snapshots, sum.candidateISLs, sum.meanLiveISLs
	}

	// Phase 3: route every satellite's packets. Worker i touches only
	// ephemeris row i and its own slot, so the fan-out is race-free and
	// the serial-order merge keeps results independent of scheduling.
	// Store-and-forward reads only the ground segment; relay search needs
	// the topology, which the phase builds before computing its first
	// unit.
	wantStore := cfg.Policy == PolicyStore || cfg.Policy == PolicyCompare
	wantRelay := cfg.Policy == PolicyRelay || cfg.Policy == PolicyCompare
	var setup func() error
	if wantRelay {
		setup = buildGraph
	}
	perSat := make([]satPackets, len(props))
	nSats := len(props)
	if err := forEachCheckpointed(ctx, cfg.RunContext, "packets", perSat, pktKey, setup, func(i int) (satPackets, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		norad := props[i].Elements().NoradID
		var windows []orbit.Window
		if wantStore {
			windows = segment.DownlinkWindowsUp(grid.Sat(i), cfg.Start, horizon, cfg.SnapshotStep, drainUp)
		}
		var search *netgraph.DeliverySearch
		if wantRelay {
			search = netgraph.NewDeliverySearch(graph)
		}
		offset := cfg.PacketInterval * time.Duration(i) / time.Duration(nSats)
		var pkts satPackets
		for origin := cfg.Start.Add(offset); origin.Before(end); origin = origin.Add(cfg.PacketInterval) {
			p := RoutedPacket{NoradID: norad, Origin: origin, RelayStation: -1}
			if wantStore {
				for _, w := range windows {
					if !w.End.Before(origin) {
						p.StoreDelivered = true
						p.StoreAt = w.End
						break
					}
				}
			}
			if wantRelay {
				if d, ok := search.Earliest(i, origin); ok {
					p.RelayDelivered = true
					p.RelayAt = d.At
					p.RelayHops = d.Hops()
					p.RelayISLHops = d.ISLHops(graph)
					p.RelayStation = d.Station
					p.RelayPath = make([]int, 1, 1+len(d.Path))
					p.RelayPath[0] = norad
					for _, h := range d.Path {
						if !graph.IsStation(int(h.To)) {
							p.RelayPath = append(p.RelayPath, graph.NoradID(int(h.To)))
						}
					}
				}
			}
			pkts = append(pkts, p)
		}
		return pkts, nil
	}); err != nil {
		return nil, err
	}
	if cfg.Shard != nil {
		// Shard run: the windowed packet units have been handed to
		// cfg.Checkpoint; skip assembly and the delivery summaries.
		return res, nil
	}

	for _, pkts := range perSat {
		res.Packets = append(res.Packets, pkts...)
	}
	res.Store = summarizeDeliveries(PolicyStore, res.Packets, wantStore)
	res.Relay = summarizeDeliveries(PolicyRelay, res.Packets, wantRelay)
	netgraph.ObserveDelivery("store", res.Store.Delivered)
	netgraph.ObserveDelivery("relay", res.Relay.Delivered)
	return res, nil
}

// buildTopology builds the routing graph over [cfg.Start, horizon) and
// every one of its snapshots, as the "topology" phase. With link faults
// on, each candidate ISL churns on its own named stream.
func buildTopology(ctx context.Context, cfg RoutingConfig, grid *orbit.EphemerisGrid, segment backhaul.GroundSegment, horizon time.Time, gcfg netgraph.Config, linkFaults bool) (*netgraph.Graph, error) {
	graph, err := netgraph.New(grid, segment.Stations, cfg.Start, horizon, gcfg)
	if err != nil {
		return nil, err
	}
	if linkFaults {
		linkScheds := make(map[[2]int]fault.Schedule, graph.CandidateISLs())
		for _, c := range graph.Candidates() {
			a, b := graph.NoradID(int(c[0])), graph.NoradID(int(c[1]))
			if b < a {
				a, b = b, a
			}
			linkScheds[[2]int{a, b}] = cfg.Faults.LinkSchedule(cfg.Seed, fault.LinkID(a, b), cfg.Start, horizon)
		}
		gcfg.ISLUp = func(noradA, noradB int, at time.Time) bool {
			if noradB < noradA {
				noradA, noradB = noradB, noradA
			}
			s, ok := linkScheds[[2]int{noradA, noradB}]
			return !ok || !s.Down(at)
		}
		// Rebuild the graph with the churn predicate attached; the
		// skeleton is cheap and snapshots are not built yet.
		graph, err = netgraph.New(grid, segment.Stations, cfg.Start, horizon, gcfg)
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := graph.BuildAll(ctx, cfg.Progress); err != nil {
		return nil, err
	}
	return graph, ctx.Err()
}

// topologyInputs encodes the inputs of the routing graph netgraph.New
// builds from a grid propagated over [start, horizon] under ephCfg, the
// segment's stations and gcfg, in a key of kind. gcfg's fault predicates
// are not encoded: only a fault-free run is keyed.
func topologyInputs(kind memoKind, props []*orbit.Propagator, start, horizon time.Time, ephCfg orbit.EphemerisConfig, segment backhaul.GroundSegment, gcfg netgraph.Config) *keyInputs {
	k := newKeyInputs(kind)
	k.grid(props, start, horizon, ephCfg)
	k.int(int64(len(segment.Stations)))
	for _, st := range segment.Stations {
		k.geodetic(st)
	}
	k.int(int64(gcfg.SnapshotStep))
	k.float(gcfg.MaxISLRangeKm)
	k.int(int64(gcfg.HopProcessing))
	k.float(gcfg.MinElevationRad)
	return k
}

// topologySummary is what a routing result reads of its topology. The
// memo holds it in place of the graph, which a job with its packet units
// memo-held never reads.
type topologySummary struct {
	snapshots, candidateISLs int
	meanLiveISLs             float64
}

// topologySummaryBytes is a topologySummary's memo size.
const topologySummaryBytes = 24

func summarize(g *netgraph.Graph) topologySummary {
	s := topologySummary{snapshots: g.Snapshots(), candidateISLs: g.CandidateISLs()}
	liveSum := 0
	for k := 0; k < g.Snapshots(); k++ {
		liveSum += g.LiveISLs(k)
	}
	if s.snapshots > 0 {
		s.meanLiveISLs = float64(liveSum) / float64(s.snapshots)
	}
	return s
}

// satPackets is one satellite's routed packets: the "packets" phase's
// work unit.
type satPackets []RoutedPacket

// valueBytes counts each packet's three times and relay path for the
// memo.
func (p *satPackets) valueBytes() int64 {
	var n int64
	for i := range *p {
		n += 3*timeBytes + 8*int64(len((*p)[i].RelayPath))
	}
	return n
}

// summarizeDeliveries builds one policy's latency summary through the
// shared stats quantile helper.
func summarizeDeliveries(policy string, pkts []RoutedPacket, ran bool) DeliverySummary {
	s := DeliverySummary{Policy: policy}
	if !ran {
		return s
	}
	var lat []float64
	hops := 0
	for _, p := range pkts {
		s.Generated++
		switch policy {
		case PolicyStore:
			if p.StoreDelivered {
				lat = append(lat, p.StoreAt.Sub(p.Origin).Seconds())
			}
		case PolicyRelay:
			if p.RelayDelivered {
				lat = append(lat, p.RelayAt.Sub(p.Origin).Seconds())
				hops += p.RelayHops
				if p.RelayHops > s.MaxHops {
					s.MaxHops = p.RelayHops
				}
			}
		}
	}
	s.Delivered = len(lat)
	if len(lat) == 0 {
		return s
	}
	s.MeanSec = stats.Mean(lat)
	qs := stats.Quantiles(lat, 0.10, 0.50, 0.90, 0.99)
	s.P10Sec, s.P50Sec, s.P90Sec, s.P99Sec = qs[0], qs[1], qs[2], qs[3]
	if policy == PolicyRelay {
		s.MeanHops = float64(hops) / float64(len(lat))
	}
	return s
}
