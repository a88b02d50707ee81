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
	// delivery summaries empty.
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
	grids, err := propagate(ctx, cfg.RunContext, cfg.Start, horizon, orbit.EphemerisConfig{
		ScanStep:         cfg.SnapshotStep,
		Exact:            cfg.ExactEphemeris,
		MaxInterpErrorKm: cfg.MaxInterpErrorKm,
	}, props)
	if err != nil {
		return nil, err
	}
	grid := grids[0]

	// Fault schedules are derived up front on named streams, so the same
	// seed and config always churn the same links and stations no matter
	// how the snapshot build is scheduled.
	var drainScheds []fault.Schedule
	drainUp := func(station int, at time.Time) bool { return true }
	if cfg.Faults != nil && cfg.Faults.DrainMTBF > 0 {
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
	graph, err := netgraph.New(grid, segment.Stations, cfg.Start, horizon, gcfg)
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil && cfg.Faults.LinkMTBF > 0 {
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

	// Phase 2: build the topology snapshots in parallel.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := graph.BuildAll(ctx, cfg.Progress); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &RoutingResult{
		Config:        cfg,
		Constellation: cons.Name,
		Snapshots:     graph.Snapshots(),
		CandidateISLs: graph.CandidateISLs(),
	}
	liveSum := 0
	for k := 0; k < graph.Snapshots(); k++ {
		liveSum += graph.LiveISLs(k)
	}
	if graph.Snapshots() > 0 {
		res.MeanLiveISLs = float64(liveSum) / float64(graph.Snapshots())
	}

	// Phase 3: route every satellite's packets. Worker i touches only
	// ephemeris row i and its own slot, so the fan-out is race-free and
	// the serial-order merge keeps results independent of scheduling.
	wantStore := cfg.Policy == PolicyStore || cfg.Policy == PolicyCompare
	wantRelay := cfg.Policy == PolicyRelay || cfg.Policy == PolicyCompare
	perSat := make([][]RoutedPacket, len(props))
	nSats := len(props)
	if err := forEachCheckpointed(ctx, cfg.RunContext, "packets", perSat, nil, func(i int) ([]RoutedPacket, error) {
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
		var pkts []RoutedPacket
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
