package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/sinet-io/sinet/internal/backhaul"
	"github.com/sinet-io/sinet/internal/channel"
	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/energy"
	"github.com/sinet-io/sinet/internal/fault"
	"github.com/sinet-io/sinet/internal/lora"
	"github.com/sinet-io/sinet/internal/mac"
	"github.com/sinet-io/sinet/internal/node"
	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/radio"
	"github.com/sinet-io/sinet/internal/satellite"
	"github.com/sinet-io/sinet/internal/sim"
	"github.com/sinet-io/sinet/internal/tracing"
)

// ActiveConfig configures a §3.2-style active measurement campaign: a
// handful of Tianqi nodes at the Yunnan plantation uploading periodic
// sensor data through the constellation.
type ActiveConfig struct {
	Seed  int64
	Start time.Time
	Days  int

	// Nodes is the deployment size (paper: 3).
	Nodes int
	// PayloadBytes per reading (paper default: 20; Fig. 12a sweeps it).
	PayloadBytes int
	// SensePeriod between readings (paper: 30 min).
	SensePeriod time.Duration
	// Policy is the DtS retransmission policy (paper: 0 or 5 retx).
	Policy mac.RetxPolicy
	// NodeAntenna is the whip profile (Fig. 5b: 1/4λ vs 5/8λ).
	NodeAntenna channel.Antenna
	// Weather pins the sky for controlled runs; nil uses the Yunnan
	// weather process. Excluded from JSON: providers are behaviour, not
	// data, and cannot round-trip through an interface.
	Weather WeatherProvider `json:"-"`
	// AlignedPhases makes all nodes sense simultaneously, forcing the
	// concurrent transmissions of Fig. 12b.
	AlignedPhases bool
	// Collisions resolves concurrent uplinks.
	Collisions mac.CollisionModel
	// SatBufferCapacity bounds the on-board store-and-forward queue
	// (0 = unbounded).
	SatBufferCapacity int
	// TxGateMarginDB: the node transmits only when the gating beacon was
	// received with at least this margin above the demodulation floor —
	// the device-side link-quality check that makes beacon-gated access
	// effective (§F). Negative disables the gate.
	TxGateMarginDB float64
	// SleepWhenIdle lets the node sleep when its queue is empty instead
	// of hanging on in Rx. The paper's Tianqi nodes do NOT do this (§3.2:
	// the radio stays on waiting for passes — the main battery drain);
	// enabling it is the energy optimization the paper calls for.
	SleepWhenIdle bool
	// ScheduleAwareMinElevationRad enables pass-schedule-aware sleeping,
	// the deeper optimization: the node propagates the constellation's
	// TLEs itself and keeps its radio off except during predicted passes
	// whose peak elevation exceeds this mask (where DtS links actually
	// close). Zero disables; ~0.35 rad (20°) is a good operating point.
	ScheduleAwareMinElevationRad float64
	// Constellation override (defaults to Tianqi at Start).
	Constellation *constellation.Constellation
	// Radio overrides the node-side LoRa data parameters; nil uses the
	// DtS defaults. Validated up front.
	Radio *lora.Params
	// Faults injects deterministic disruption (satellite beacon blackouts,
	// drain-station outages); nil — the default — reproduces pre-fault
	// results byte-identically.
	Faults *fault.Config
	// ExactEphemeris disables Hermite interpolation for off-grid satellite
	// state queries, answering them with exact SGP4 instead — bit-identical
	// to sampling the propagator directly, at the cost of the propagation
	// savings (see orbit.EphemerisConfig.Exact).
	ExactEphemeris bool
	// MaxInterpErrorKm bounds the interpolation position error when
	// ExactEphemeris is false (0 = orbit.DefaultMaxInterpErrorKm).
	MaxInterpErrorKm float64
	// RunContext observes the "ephemeris", "plan" and "simulate" phases
	// (the last per elapsed campaign day). "plan" — one unit per
	// satellite: its beacon/wake/drain schedule — is the phase that
	// checkpoints and shards; a shard run returns before "simulate",
	// which only the merge node runs from every shard's folded plans.
	RunContext `json:"-"`
}

func (c *ActiveConfig) setDefaults() {
	if c.Start.IsZero() {
		c.Start = time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.Days <= 0 {
		c.Days = 1
	}
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.PayloadBytes <= 0 {
		c.PayloadBytes = 20
	}
	if c.SensePeriod <= 0 {
		c.SensePeriod = 30 * time.Minute
	}
	if c.Policy.AckTimeout <= 0 {
		c.Policy.AckTimeout = 3 * time.Second
	}
	if c.NodeAntenna.Name == "" {
		c.NodeAntenna = channel.FiveEighthsWave
	}
	if c.Collisions.CaptureThresholdDB == 0 {
		c.Collisions = mac.DefaultCollisionModel()
	}
	if c.SatBufferCapacity == 0 {
		c.SatBufferCapacity = 4096
	}
	// TxGateMarginDB keeps its zero default: the stock Tianqi node
	// transmits on any decoded beacon (beacons are modulated more
	// robustly than data, see beaconParams), so the gate is an
	// optimization knob rather than baseline behaviour.
}

// PacketOutcome traces one sensor reading end-to-end.
type PacketOutcome struct {
	Node        string
	SeqID       uint64
	GeneratedAt time.Time

	// FirstAttemptAt is the first uplink transmission (zero if the node
	// never heard a beacon for it).
	FirstAttemptAt time.Time
	// UplinkedAt is when a satellite first decoded the packet.
	UplinkedAt time.Time
	// AckedAt is when the node received the ACK.
	AckedAt time.Time
	// ServerAt is the subscriber-server arrival (zero = lost).
	ServerAt time.Time

	Attempts        int
	UnnecessaryRetx int
	Collisions      int
	// MaxConcurrency is the largest number of simultaneous node
	// transmissions in any of this packet's beacon rounds.
	MaxConcurrency int
}

// Delivered reports end-to-end success (arrived at the server).
func (p PacketOutcome) Delivered() bool { return !p.ServerAt.IsZero() }

// WaitLatency is segment (1) of Fig. 5d: generation → first transmission.
func (p PacketOutcome) WaitLatency() (time.Duration, bool) {
	if p.FirstAttemptAt.IsZero() {
		return 0, false
	}
	return p.FirstAttemptAt.Sub(p.GeneratedAt), true
}

// DtSLatency is segment (2): the DtS (re)transmission phase — first
// transmission until the node resolves the packet (ACK received), or
// until the satellite decode when no ACK ever arrived. ACK losses extend
// this phase across beacons and passes exactly as the paper observes.
func (p PacketOutcome) DtSLatency() (time.Duration, bool) {
	if p.FirstAttemptAt.IsZero() {
		return 0, false
	}
	end := p.AckedAt
	if end.IsZero() {
		end = p.UplinkedAt
	}
	if end.IsZero() {
		return 0, false
	}
	return end.Sub(p.FirstAttemptAt), true
}

// DeliveryLatency is segment (3): satellite decode → server arrival.
func (p PacketOutcome) DeliveryLatency() (time.Duration, bool) {
	if p.UplinkedAt.IsZero() || p.ServerAt.IsZero() {
		return 0, false
	}
	return p.ServerAt.Sub(p.UplinkedAt), true
}

// TotalLatency is generation → server arrival.
func (p PacketOutcome) TotalLatency() (time.Duration, bool) {
	if p.ServerAt.IsZero() {
		return 0, false
	}
	return p.ServerAt.Sub(p.GeneratedAt), true
}

// ActiveResult is a completed active campaign.
type ActiveResult struct {
	Config   ActiveConfig
	Packets  []*PacketOutcome
	MacStats mac.Stats
	// Meters are the per-node energy meters, keyed by node ID.
	Meters map[string]*energy.Meter
	// BufferDrops counts packets lost to satellite buffer pressure.
	BufferDrops int
}

// satPlan is one satellite's precomputed schedule: the "plan" phase's
// work unit. It holds only pure serializable values so completed units
// checkpoint and restore byte-exactly; the gateway and fault schedule
// objects that accompany it at simulation time are rebuilt after the
// fan-out. A plan is read-only once computed: the memo shares one plan
// among every run that hits it.
type satPlan struct {
	// Beacons holds the satellite's beacon instants, one slice per
	// plantation pass.
	Beacons [][]time.Time `json:"beacons,omitempty"`
	// Wake are the merged pass windows a schedule-aware node wakes for.
	Wake []orbit.Window `json:"wake,omitempty"`
	// Drains are the booked downlink drain sessions.
	Drains []time.Time `json:"drains,omitempty"`

	// flat is every beacon instant in pass order: the one array the
	// passes of Beacons are sliced from. It is nil on a plan decoded
	// from a checkpoint, whose passes each have their own array.
	flat []time.Time
}

// valueBytes counts p's time.Time values for the memo, beacons from
// Beacons.
func (p *satPlan) valueBytes() int64 {
	n := len(p.Drains) + 2*len(p.Wake)
	for _, bts := range p.Beacons {
		n += len(bts)
	}
	return timeBytes * int64(n)
}

// beacons returns every beacon instant of p in pass order.
func (p *satPlan) beacons() []time.Time {
	if p.flat != nil {
		return p.flat
	}
	var all []time.Time
	for _, bts := range p.Beacons {
		all = append(all, bts...)
	}
	return all
}

// planBeacons fills p's beacons for passes, slicing every pass from one
// array sized for the most beacons the passes can hold. A pass without
// beacons keeps a nil slice, so the plan marshals as per-pass slices did.
func planBeacons(p *satPlan, gw *satellite.Gateway, passes []orbit.Pass) {
	if len(passes) == 0 {
		return
	}
	n := 0
	for _, pass := range passes {
		if gw.BeaconInterval > 0 {
			n += int(pass.LOS.Sub(pass.AOS)/gw.BeaconInterval) + 1
		}
	}
	p.flat = make([]time.Time, 0, n)
	p.Beacons = make([][]time.Time, len(passes))
	for k, pass := range passes {
		lo := len(p.flat)
		p.flat = gw.AppendBeaconTimes(p.flat, pass.AOS, pass.LOS)
		if hi := len(p.flat); hi > lo {
			p.Beacons[k] = p.flat[lo:hi:hi]
		}
	}
}

// attempt is one node's uplink in a beacon round.
type attempt struct {
	n       *node.Node
	site    orbit.Observer
	reading *node.Reading
	out     *PacketOutcome
	tx      mac.Transmission
	decoded bool
}

// activeRunner holds the mutable state of one active campaign execution.
type activeRunner struct {
	cfg     ActiveConfig
	engine  *sim.Engine
	end     time.Time
	weather WeatherProvider

	nodes []*node.Node
	// observers holds each node's look frame, by index into nodes.
	observers []orbit.Observer
	outcomes  map[string]map[uint64]*PacketOutcome

	gateways []*satellite.Gateway
	// downLink / upLink / ackLink per node index keyed by node.
	beaconLinks map[string]*radio.Link
	upLinks     map[string]*radio.Link
	ackLinks    map[string]*radio.Link

	delivery      *backhaul.DeliveryModel
	jitter        *sim.RNG
	beaconPayload int
	drainDuration time.Duration
	// wakeWindows are the predicted pass windows the schedule-aware node
	// wakes for (empty when the optimization is off).
	wakeWindows []orbit.Window

	// Scratch of one beacon round, reused across rounds.
	attempts  []attempt
	txs       []mac.Transmission
	surviving []bool

	res *ActiveResult
}

// RunActive executes the satellite-side active campaign.
func RunActive(cfg ActiveConfig) (*ActiveResult, error) {
	return RunActiveCtx(context.Background(), cfg)
}

// RunActiveCtx is RunActive with config validation up front and
// cooperative cancellation: the context is checked per satellite while
// schedules build and before every simulation event, so a cancelled
// campaign aborts promptly and returns ctx.Err().
func RunActiveCtx(ctx context.Context, cfg ActiveConfig) (*ActiveResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.setDefaults()
	cons := constellation.Tianqi(cfg.Start)
	if cfg.Constellation != nil {
		cons = *cfg.Constellation
	}
	site := YunnanPlantation()
	end := cfg.Start.Add(time.Duration(cfg.Days) * 24 * time.Hour)

	// Build gateways, predict passes over the plantation and downlink
	// drain schedules over the operator's ground segment.
	props, err := cons.Propagators()
	if err != nil {
		return nil, err
	}
	segment := backhaul.TianqiGroundSegment()

	// Fault schedules: drain-station outages thin the downlink windows the
	// operator can book (stretching store-and-forward delivery tails), and
	// per-satellite blackouts mute beacons at fire time. Both derive from
	// dedicated named RNG streams, so enabling them never perturbs the
	// campaign's other stochastic draws.
	horizon := end.Add(graceAfterEnd)
	faultsOn := cfg.Faults != nil && cfg.Faults.Enabled()
	drainFaults := faultsOn && cfg.Faults.DrainMTBF > 0
	satFaults := faultsOn && cfg.Faults.SatMTBF > 0
	var drainScheds []fault.Schedule
	if drainFaults {
		drainScheds = make([]fault.Schedule, len(segment.Stations))
		for i := range segment.Stations {
			drainScheds[i] = cfg.Faults.DrainSchedule(cfg.Seed, i, cfg.Start, horizon)
		}
	}

	// Per-satellite prediction (passes, beacon times, downlink drains) is
	// independent, SGP4-dominated work, so it fans out across workers into
	// index-addressed slots. The shared struct-of-arrays ephemeris grid
	// samples first in its own phase — each worker owns its row index, so
	// the fan-out never races — and the plantation pass search, the
	// 12-station downlink search, and the event-time gateway geometry all
	// read the same trajectory samples. The engine scheduling below
	// replays the slots serially in catalog order, so the event queue —
	// and therefore the whole campaign — is identical to a serial build.
	ephCfg := orbit.EphemerisConfig{
		ScanStep:         time.Minute,
		Exact:            cfg.ExactEphemeris,
		MaxInterpErrorKm: cfg.MaxInterpErrorKm,
	}
	grids, err := propagate(ctx, cfg.RunContext, cfg.Start, horizon, ephCfg, props)
	if err != nil {
		return nil, err
	}
	grid := grids[0]

	// The plan phase's units are pure serializable schedules, so they
	// checkpoint: a resumed campaign restores completed satellites'
	// beacon/wake/drain times and recomputes only the rest. Gateways and
	// fault schedules rebuild serially below — both are cheap and
	// deterministic (named RNG streams), only the searches are expensive.
	// The memo restores plans too, as values: a plan reads the grid, the
	// site, the span, the beacon interval and the schedule-aware mask —
	// and, with drain faults on, the seed, so only a fault-free plan is
	// keyed.
	plans := make([]satPlan, len(props))
	var key *keyInputs
	if cfg.Memo != nil && !drainFaults {
		key = newKeyInputs(kindPlan)
		key.grid(props, cfg.Start, horizon, ephCfg)
		key.geodetic(site)
		key.time(end)
		key.int(int64(cons.BeaconInterval))
		key.float(cfg.ScheduleAwareMinElevationRad)
	}
	if err := forEachCheckpointed(ctx, cfg.RunContext, "plan", plans, key, nil, func(i int) (satPlan, error) {
		if err := ctx.Err(); err != nil {
			return satPlan{}, err
		}
		var plan satPlan
		eph := grid.Sat(i)
		gw := satellite.NewGateway(eph, cons.BeaconInterval, cfg.SatBufferCapacity)

		pp := orbit.NewEphemerisPredictor(eph)
		passes := pp.Passes(site, cfg.Start, end, 0)
		if cfg.ScheduleAwareMinElevationRad > 0 {
			// Schedule-aware sleeping: the node only wakes for passes
			// worth waking for.
			kept := passes[:0]
			for _, pass := range passes {
				if pass.MaxElevation >= cfg.ScheduleAwareMinElevationRad {
					kept = append(kept, pass)
				}
			}
			passes = kept
			wake := make([]orbit.Window, len(passes))
			for i, pass := range passes {
				wake[i] = pass.Window()
			}
			plan.Wake = orbit.MergeWindows(wake)
		}
		planBeacons(&plan, gw, passes)
		var windows []orbit.Window
		if drainFaults {
			windows = segment.DownlinkWindowsUp(eph, cfg.Start, horizon, time.Minute, func(station int, at time.Time) bool {
				return !drainScheds[station].Down(at)
			})
		} else {
			windows = segment.DownlinkWindows(eph, cfg.Start, horizon, time.Minute)
		}
		// Operators book roughly two drain sessions per revolution when
		// geometry allows; the emergent mean store-and-forward delay is
		// what Fig. 5d's delivery segment measures.
		plan.Drains = backhaul.ScheduleDrains(windows, 150*time.Minute)
		return plan, nil
	}); err != nil {
		return nil, err
	}
	if cfg.Shard != nil {
		// Shard run: the windowed plan units have been handed to
		// cfg.Checkpoint; skip engine scheduling and the serial simulate
		// phase — only the merge node, holding every shard's plans,
		// simulates. It builds no node, radio or weather: every stream
		// they draw from is named, so building them later draws the same.
		return &ActiveResult{Config: cfg, Meters: map[string]*energy.Meter{}}, nil
	}
	r := &activeRunner{
		cfg:           cfg,
		engine:        sim.NewEngine(cfg.Start),
		end:           end,
		outcomes:      map[string]map[uint64]*PacketOutcome{},
		beaconLinks:   map[string]*radio.Link{},
		upLinks:       map[string]*radio.Link{},
		ackLinks:      map[string]*radio.Link{},
		delivery:      backhaul.NewDeliveryModel(sim.NewRNG(cfg.Seed, "active/delivery")),
		jitter:        sim.NewRNG(cfg.Seed, "active/jitter"),
		beaconPayload: cons.BeaconPayloadBytes,
		drainDuration: segment.DrainDuration,
		res:           &ActiveResult{Config: cfg, Meters: map[string]*energy.Meter{}},
	}
	if cfg.Weather != nil {
		r.weather = cfg.Weather
	} else {
		yunnan := Site{Code: "YN", City: "Yunnan", Location: site, RainProbability: 0.30}
		r.weather = NewWeatherProcess(sim.NewRNG(cfg.Seed, "active/weather"), yunnan, cfg.Start, cfg.Days)
	}

	// Deploy the nodes with their radio chains. Beacons are modulated one
	// spreading-factor step more robustly than data frames (gateways
	// must be discoverable across the whole footprint), so a node can
	// hear a beacon in conditions where its own data frame would not
	// survive — the origin of DtS data losses and retransmissions.
	dtsParams := lora.DefaultDtSParams()
	if cfg.Radio != nil {
		dtsParams = *cfg.Radio
	}
	beaconParams := dtsParams
	for i := 0; i < cfg.Nodes; i++ {
		id := fmt.Sprintf("tq-%d", i+1)
		loc := orbit.NewGeodeticDeg(site.LatDeg()+0.002*float64(i), site.LonDeg()+0.002*float64(i), site.Alt)
		meter := energy.NewMeter(energy.TianqiProfile(), cfg.Start)
		if !cfg.SleepWhenIdle && cfg.ScheduleAwareMinElevationRad <= 0 {
			// Paper behaviour: the radio hangs on in Rx from power-up,
			// monitoring for satellites (§3.2).
			meter.Transition(energy.Rx, cfg.Start)
		}
		n := node.New(id, loc, cfg.NodeAntenna, cfg.Policy, meter)
		r.nodes = append(r.nodes, n)
		r.observers = append(r.observers, orbit.NewObserver(loc))
		r.outcomes[id] = map[uint64]*PacketOutcome{}
		r.res.Meters[id] = meter

		// One shared channel realization per node: beacon, uplink and ACK
		// all traverse the same physical path within seconds of each
		// other, so they must see the same (slowly varying) shadowing
		// state — this is what makes the beacon-gated protocol effective
		// (§F of the paper).
		model := channel.NewModel(sim.NewRNG(cfg.Seed, "active/chan/"+id))
		model.ShadowSigmaDB = 1.8
		// The plantation has a clear sky view: fast fading is mild and
		// link quality is shadow-dominated, which is what lets a decoded
		// beacon predict uplink success a second later.
		model.RicianK = 25
		r.beaconLinks[id] = radio.NewLink(beaconParams, DtSBeaconToNodeBudget(cons.TxPowerDBm, cfg.NodeAntenna),
			model, cons.FreqMHz, sim.NewRNG(cfg.Seed, "active/rx-beacon/"+id))
		r.upLinks[id] = radio.NewLink(dtsParams, DtSUplinkBudget(n.TxPowerDBm, cfg.NodeAntenna),
			model, cons.FreqMHz, sim.NewRNG(cfg.Seed, "active/rx-up/"+id))
		r.ackLinks[id] = radio.NewLink(dtsParams, DtSAckBudget(cons.TxPowerDBm, cfg.NodeAntenna),
			model, cons.FreqMHz, sim.NewRNG(cfg.Seed, "active/rx-ack/"+id))
	}

	// Each satellite is two event series, its beacons and its drains, in
	// the order a Schedule call per instant would take: the engine queues
	// one entry per series, not one per beacon.
	for i := range plans {
		gw := satellite.NewGateway(grid.Sat(i), cons.BeaconInterval, cfg.SatBufferCapacity)
		r.gateways = append(r.gateways, gw)
		var outage fault.Schedule
		if satFaults {
			outage = cfg.Faults.SatSchedule(cfg.Seed, gw.NoradID, cfg.Start, end)
		}
		r.wakeWindows = append(r.wakeWindows, plans[i].Wake...)
		if err := r.engine.ScheduleEach(plans[i].beacons(), func(_ *sim.Engine, at time.Time) {
			r.onBeacon(gw, outage, at)
		}); err != nil {
			return nil, err
		}
		if err := r.engine.ScheduleEach(plans[i].Drains, func(_ *sim.Engine, at time.Time) {
			r.onDrain(gw, at)
		}); err != nil {
			return nil, err
		}
	}

	// Merge and sort wake windows across satellites.
	if len(r.wakeWindows) > 0 {
		r.wakeWindows = orbit.MergeWindows(r.wakeWindows)
		// Put schedule-aware nodes back to sleep at each window end.
		ends := make([]time.Time, len(r.wakeWindows))
		for i, w := range r.wakeWindows {
			ends[i] = w.End
		}
		if err := r.engine.ScheduleEach(ends, func(_ *sim.Engine, wEnd time.Time) {
			for _, n := range r.nodes {
				if n.Meter.Mode() == energy.Rx {
					n.Meter.Transition(energy.Sleep, wEnd)
				}
			}
		}); err != nil {
			return nil, err
		}
	}

	// Sensor schedules.
	for i, n := range r.nodes {
		offset := time.Duration(0)
		if !cfg.AlignedPhases {
			offset = time.Duration(i) * cfg.SensePeriod / time.Duration(cfg.Nodes)
		}
		n := n
		var sense func(*sim.Engine)
		sense = func(e *sim.Engine) {
			r.onSense(n, e.Now())
			next := e.Now().Add(cfg.SensePeriod)
			if next.Before(r.end) {
				_ = e.Schedule(next, sense)
			}
		}
		if err := r.engine.Schedule(cfg.Start.Add(offset), sense); err != nil {
			return nil, err
		}
	}

	// Day markers let observers follow the event-driven phase. They touch
	// no simulation state, so enabling progress never perturbs results.
	if cfg.Progress != nil {
		for d := 1; d <= cfg.Days; d++ {
			d := d
			if err := r.engine.Schedule(cfg.Start.Add(time.Duration(d)*24*time.Hour), func(*sim.Engine) {
				cfg.Progress("simulate", d, cfg.Days)
			}); err != nil {
				return nil, err
			}
		}
	}

	// Run past the nominal end so packets already on board get their
	// final drain opportunity (sensing and beacons stop at end). The event
	// loop is one unit; the day markers above report its progress.
	if err := sim.Phase(ctx, "simulate", 1, func(int) error {
		return r.engine.RunCtx(ctx, horizon)
	}, nil, tracing.Int("days", cfg.Days)); err != nil {
		return nil, err
	}

	// Close books: drain remaining buffers at end-of-campaign drains that
	// fell beyond the horizon are lost (undelivered), meters finish.
	for _, n := range r.nodes {
		n.Meter.Finish(end)
	}
	for _, gw := range r.gateways {
		r.res.BufferDrops += gw.Buffer.Dropped
	}
	sort.Slice(r.res.Packets, func(i, j int) bool {
		a, b := r.res.Packets[i], r.res.Packets[j]
		if a.GeneratedAt.Equal(b.GeneratedAt) {
			return a.Node < b.Node
		}
		return a.GeneratedAt.Before(b.GeneratedAt)
	})
	return r.res, nil
}

// onSense handles a sensor reading.
func (r *activeRunner) onSense(n *node.Node, at time.Time) {
	reading := n.Sense(at, r.cfg.PayloadBytes)
	out := &PacketOutcome{Node: n.ID, SeqID: reading.SeqID, GeneratedAt: at}
	r.outcomes[n.ID][reading.SeqID] = out
	r.res.Packets = append(r.res.Packets, out)
	// Pending data: the node (re-)enters Rx awaiting a beacon (§3.2's
	// energy-drain mechanism). Under the default policy it is already
	// listening; a schedule-aware node stays asleep until a worthwhile
	// pass (its wake-up is handled at beacon time).
	if r.cfg.ScheduleAwareMinElevationRad > 0 && !r.inWakeWindow(at) {
		return
	}
	if n.Meter.Mode() != energy.Rx {
		n.Meter.Transition(energy.Rx, at)
	}
}

// onBeacon handles one beacon instant of gw, whose blackouts are outage.
func (r *activeRunner) onBeacon(gw *satellite.Gateway, outage fault.Schedule, at time.Time) {
	if outage.Down(at) {
		// Blacked-out satellite: no beacon goes out, so no node is granted
		// the channel and the retransmission policy just keeps the packet
		// queued for the next audible beacon.
		return
	}
	w := r.weather.At(at)
	attempts := r.attempts[:0]

	scheduleAware := r.cfg.ScheduleAwareMinElevationRad > 0
	for ni, n := range r.nodes {
		if !n.Pending() {
			continue
		}
		if scheduleAware && n.Meter.Mode() != energy.Rx && r.inWakeWindow(at) {
			// Wake for the predicted pass.
			n.Meter.Transition(energy.Rx, at)
		}
		if n.Meter.Mode() != energy.Rx {
			continue
		}
		la, err := gw.GeometryAt(r.observers[ni], at)
		if err != nil || la.Elevation <= 0 {
			continue
		}
		geom := radio.Geometry{At: at, DistanceKm: la.RangeKm, ElevationRad: la.Elevation, RangeRateKmS: la.RangeRate}
		// The node must decode the beacon to be allowed to transmit. An
		// optional SNR gate (an optimization, off by default) additionally
		// demands margin above the DATA frame's demodulation floor.
		beacon := r.beaconLinks[n.ID].Transmit(geom, w, r.beaconPayload)
		if !beacon.Decoded {
			continue
		}
		if r.cfg.TxGateMarginDB > 0 {
			if floor := r.upLinks[n.ID].Params.SF.DemodFloorDB(); beacon.SNRDB < floor+r.cfg.TxGateMarginDB {
				continue
			}
		}
		reading := n.Head()
		out := r.outcomes[n.ID][reading.SeqID]
		if out.FirstAttemptAt.IsZero() {
			out.FirstAttemptAt = at
		}

		// Slotted uplink offset after the beacon: nodes draw a random
		// slot within the beacon period to desynchronize, mirroring the
		// multi-channel/slotted access commercial DtS systems use.
		start := at.Add(time.Duration(r.jitter.Float64() * 8 * float64(time.Second)))
		airtime := r.upLinks[n.ID].Params.Airtime(reading.PayloadBytes)
		upGeom := geom
		upGeom.At = start
		up := r.upLinks[n.ID].Transmit(upGeom, w, reading.PayloadBytes)
		reading.Attempts++
		out.Attempts++
		if !reading.UplinkedAt.IsZero() {
			out.UnnecessaryRetx++
			r.res.MacStats.UnnecessaryRetx++
		}
		attempts = append(attempts, attempt{
			n: n, site: r.observers[ni], reading: reading, out: out,
			tx: mac.Transmission{
				Frame: mac.Frame{Type: mac.FrameDataUp, SatNoradID: gw.NoradID, NodeID: n.ID, SeqID: reading.SeqID, PayloadBytes: reading.PayloadBytes, Attempt: reading.Attempts - 1},
				Start: start, End: start.Add(airtime), SNRDB: up.SNRDB,
			},
			decoded: up.Decoded,
		})
		// Energy: Tx burst then back to Rx for the ACK.
		n.Meter.Transition(energy.Tx, start)
		n.Meter.Transition(energy.Rx, start.Add(airtime))
	}
	r.attempts = attempts
	if len(attempts) == 0 {
		return
	}

	// Collision resolution across this beacon round.
	txs := r.txs[:0]
	for _, a := range attempts {
		txs = append(txs, a.tx)
	}
	r.txs = txs
	surviving := append(r.surviving[:0], make([]bool, len(attempts))...)
	r.surviving = surviving
	for _, idx := range r.cfg.Collisions.Survivors(txs) {
		surviving[idx] = true
	}

	for i := range attempts {
		a := &attempts[i]
		a.out.MaxConcurrency = maxInt(a.out.MaxConcurrency, len(attempts))
		collided := !surviving[i] && len(attempts) > 1
		uplinkOK := a.decoded && surviving[i]
		if collided {
			a.out.Collisions++
		}

		ackOK := false
		if uplinkOK {
			if a.reading.UplinkedAt.IsZero() {
				a.reading.UplinkedAt = a.tx.End
				a.out.UplinkedAt = a.tx.End
				// Store on board and schedule delivery at the next drain.
				stored := gw.Buffer.Push(satellite.StoredPacket{
					NodeID: a.n.ID, SeqID: a.reading.SeqID,
					PayloadBytes: a.reading.PayloadBytes,
					SentAt:       a.reading.GeneratedAt, ReceivedAt: a.tx.End,
					Attempt: a.reading.Attempts - 1,
				})
				if !stored {
					// Buffer pressure: the data is acked yet lost on board.
					a.out.UplinkedAt = a.tx.End
				}
			}
			// ACK comes back over the downlink channel.
			la, err := gw.GeometryAt(a.site, a.tx.End)
			if err == nil {
				geom := radio.Geometry{At: a.tx.End, DistanceKm: la.RangeKm, ElevationRad: la.Elevation, RangeRateKmS: la.RangeRate}
				ackOK = r.ackLinks[a.n.ID].Transmit(geom, r.weather.At(a.tx.End), 12).Decoded
			}
		}

		r.res.MacStats.Record(mac.TxOutcome{
			Attempt:  a.tx.Frame.Attempt,
			UplinkOK: uplinkOK,
			AckOK:    ackOK,
			Collided: collided,
		})

		resolveAt := a.tx.End.Add(r.cfg.Policy.AckTimeout)
		switch a.n.ResolveHead(ackOK, resolveAt) {
		case node.DeliveredAck:
			a.out.AckedAt = resolveAt
			r.res.MacStats.PacketsDelivered++
		case node.Abandon:
			r.res.MacStats.PacketsAbandoned++
		}
		// Queue drained: sleep only when an optimization allows it; the
		// stock Tianqi node keeps listening (§3.2).
		if (r.cfg.SleepWhenIdle || r.cfg.ScheduleAwareMinElevationRad > 0) && !a.n.Pending() {
			a.n.Meter.Transition(energy.Sleep, resolveAt)
		}
	}
}

// onDrain flushes gw's buffer at a scheduled downlink session.
func (r *activeRunner) onDrain(gw *satellite.Gateway, at time.Time) {
	for _, p := range gw.Buffer.Flush() {
		out := r.outcomes[p.NodeID][p.SeqID]
		if out == nil || !out.ServerAt.IsZero() {
			continue
		}
		out.ServerAt = r.delivery.DeliverAt(at.Add(r.drainDuration))
	}
}

// inWakeWindow reports whether t falls inside a schedule-aware wake
// window (binary search over the merged, sorted windows).
func (r *activeRunner) inWakeWindow(t time.Time) bool {
	lo, hi := 0, len(r.wakeWindows)
	for lo < hi {
		mid := (lo + hi) / 2
		w := r.wakeWindows[mid]
		switch {
		case t.Before(w.Start):
			hi = mid
		case !t.Before(w.End):
			lo = mid + 1
		default:
			return true
		}
	}
	return false
}

// graceAfterEnd lets in-flight store-and-forward packets drain after the
// last reading so tail packets are not artificially counted as lost.
const graceAfterEnd = 4 * time.Hour

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
