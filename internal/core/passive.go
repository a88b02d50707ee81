package core

import (
	"context"
	"fmt"
	"time"

	"github.com/sinet-io/sinet/internal/channel"
	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/fault"
	"github.com/sinet-io/sinet/internal/groundstation"
	"github.com/sinet-io/sinet/internal/lora"
	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/radio"
	"github.com/sinet-io/sinet/internal/satellite"
	"github.com/sinet-io/sinet/internal/sim"
	"github.com/sinet-io/sinet/internal/trace"
)

// PassiveConfig configures a §3.1-style passive measurement campaign.
type PassiveConfig struct {
	// Seed drives every random stream in the campaign.
	Seed int64
	// Start and Days bound the campaign window.
	Start time.Time
	Days  int
	// Sites to deploy at (defaults to the four continent sites).
	Sites []Site
	// Constellations to measure (defaults to all four).
	Constellations []constellation.Constellation
	// Scheduler decides station-satellite tuning (defaults to the paper's
	// customized tracking scheduler). Excluded from JSON: scheduler choice
	// is behaviour, not data, and cannot round-trip through an interface.
	Scheduler groundstation.Scheduler `json:"-"`
	// MinElevationRad is the theoretical-visibility mask (default 0°,
	// matching TLE-based presence computations).
	MinElevationRad float64
	// CoarseStep is the pass-search scan step (default 60 s).
	CoarseStep time.Duration
	// ExactEphemeris disables Hermite interpolation in the shared
	// ephemeris grids: every off-grid query falls back to exact SGP4,
	// reproducing pre-interpolation campaign outputs byte-identically at
	// a large propagation cost.
	ExactEphemeris bool
	// MaxInterpErrorKm bounds the positional error of interpolated
	// ephemeris queries (default orbit.DefaultMaxInterpErrorKm; ignored
	// when ExactEphemeris is set).
	MaxInterpErrorKm float64
	// HonorSiteStart delays each site to its Table 1 start month when the
	// campaign window begins earlier.
	HonorSiteStart bool
	// Weather pins the sky state for controlled experiments; nil uses
	// each site's stochastic weather process. A non-nil provider is shared
	// by concurrent site workers and must be safe for concurrent reads
	// (the built-in providers are: their state is precomputed). Excluded
	// from JSON for the same reason as Scheduler.
	Weather WeatherProvider `json:"-"`
	// Radio overrides the station-side LoRa parameters; nil uses the DtS
	// defaults. Validated up front so illegal SF/BW combinations are
	// rejected before the campaign runs.
	Radio *lora.Params
	// Faults injects deterministic infrastructure disruption (station
	// churn, maintenance windows); nil — the default — simulates perfectly
	// available infrastructure and reproduces pre-fault results
	// byte-identically.
	Faults *fault.Config
	// RunContext observes the "ephemeris" and "contacts" phases;
	// "contacts" — one unit per (site × constellation) pair — is the
	// phase that checkpoints and shards.
	RunContext `json:"-"`
}

func (c *PassiveConfig) setDefaults() {
	if c.Days <= 0 {
		c.Days = 1
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	}
	if len(c.Sites) == 0 {
		c.Sites = ContinentSites()
	}
	if len(c.Constellations) == 0 {
		c.Constellations = constellation.All(c.Start)
	}
	if c.Scheduler == nil {
		c.Scheduler = groundstation.TrackingScheduler{}
	}
	if c.CoarseStep <= 0 {
		c.CoarseStep = 60 * time.Second
	}
}

// ContactStat summarizes one theoretical contact window and what the
// ground segment actually received during it.
type ContactStat struct {
	Site          string
	Constellation string
	SatName       string
	NoradID       int

	Pass orbit.Pass

	// Covered reports whether the scheduler had any station tuned to the
	// satellite during the pass.
	Covered bool

	BeaconsSent     int
	BeaconsReceived int
	FirstRx, LastRx time.Time

	// RxPositions are the window-relative positions (0..1) of received
	// beacons, feeding the Fig. 9 histogram.
	RxPositions []float64

	// WeatherAtTCA is the sky state at closest approach.
	WeatherAtTCA channel.Weather
}

// TheoreticalDuration is the TLE-predicted visibility span.
func (c ContactStat) TheoreticalDuration() time.Duration { return c.Pass.Duration() }

// EffectiveDuration is the span between first and last received beacons
// (zero when fewer than one beacon was received).
func (c ContactStat) EffectiveDuration() time.Duration {
	if c.FirstRx.IsZero() || c.LastRx.Before(c.FirstRx) {
		return 0
	}
	return c.LastRx.Sub(c.FirstRx)
}

// ReceptionRatio is received/sent beacons for the contact.
func (c ContactStat) ReceptionRatio() float64 {
	if c.BeaconsSent == 0 {
		return 0
	}
	return float64(c.BeaconsReceived) / float64(c.BeaconsSent)
}

// StationAvailability summarizes one station's injected churn over its
// campaign span: the availability-under-churn report row.
type StationAvailability struct {
	Station  string
	Site     string
	Uptime   float64
	Outages  int
	Downtime time.Duration
}

// PassiveResult is a completed passive campaign.
type PassiveResult struct {
	Config   PassiveConfig
	Dataset  *trace.Dataset
	Contacts []ContactStat
	// Availability holds one row per station when fault injection is on
	// (nil otherwise), in deterministic site/station order.
	Availability []StationAvailability
}

// RunPassive executes the campaign and returns its dataset and per-contact
// statistics. The work is deterministic for a given config: the
// (site × constellation) pairs run on a worker pool, but every stochastic
// draw comes from a named per-site/per-link RNG stream and each worker
// writes into an index-addressed slot that is merged in the serial order,
// so the output is bit-identical to a single-worker run.
func RunPassive(cfg PassiveConfig) (*PassiveResult, error) {
	return RunPassiveCtx(context.Background(), cfg)
}

// RunPassiveCtx is RunPassive with config validation up front and
// cooperative cancellation: the context is checked per satellite while
// ephemerides build and per pass while contacts simulate, so a cancelled
// campaign aborts within roughly one coarse step of work and returns
// ctx.Err().
func RunPassiveCtx(ctx context.Context, cfg PassiveConfig) (*PassiveResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.setDefaults()
	res := &PassiveResult{Config: cfg, Dataset: &trace.Dataset{}}
	end := cfg.Start.Add(time.Duration(cfg.Days) * 24 * time.Hour)
	faultsOn := cfg.Faults != nil && cfg.Faults.Enabled()

	// Per-site context: stations, one weather realization, and (under
	// fault injection) the per-station outage schedules shared by every
	// constellation (and worker) at the site.
	type siteCtx struct {
		site     Site
		start    time.Time
		stations []groundstation.Station
		weather  WeatherProvider
		outages  map[string][]orbit.Window
	}
	siteCtxs := make([]siteCtx, 0, len(cfg.Sites))
	for _, site := range cfg.Sites {
		start := cfg.Start
		if cfg.HonorSiteStart && site.StartMonth.After(start) {
			start = site.StartMonth
		}
		if !end.After(start) {
			continue
		}
		weather := cfg.Weather
		if weather == nil {
			weather = NewWeatherProcess(sim.NewRNG(cfg.Seed, "weather/"+site.Code), site, start, cfg.Days)
		}
		sc := siteCtx{site: site, start: start, stations: site.BuildStations(), weather: weather}
		if faultsOn {
			sc.outages = make(map[string][]orbit.Window, len(sc.stations))
			for _, st := range sc.stations {
				sched := cfg.Faults.StationSchedule(cfg.Seed, st.ID, start, end)
				if ws := sched.Windows(); len(ws) > 0 {
					sc.outages[st.ID] = ws
				}
				res.Availability = append(res.Availability, StationAvailability{
					Station:  st.ID,
					Site:     site.Code,
					Uptime:   sched.Availability(start, end),
					Outages:  sched.OutageCount(start, end),
					Downtime: sched.DownTime(start, end),
				})
			}
		}
		siteCtxs = append(siteCtxs, sc)
	}

	// One ephemeris grid per constellation, shared by every site: the
	// satellite state at a timestep is site-independent, so sampling it
	// once turns O(sats × sites × steps) propagations into
	// O(sats × steps) — and the grid's struct-of-arrays storage samples
	// the whole constellation into six contiguous arrays instead of
	// per-satellite slices. Grids anchor at cfg.Start; a site whose scan
	// starts a whole number of steps later (the Table 1 month boundaries
	// always do) still hits the samples, and any misaligned query is
	// answered by the bounded-error interpolant (or exact SGP4 under
	// ExactEphemeris).
	ephCfg := orbit.EphemerisConfig{
		ScanStep:         cfg.CoarseStep,
		Exact:            cfg.ExactEphemeris,
		MaxInterpErrorKm: cfg.MaxInterpErrorKm,
	}
	consProps := make([][]*orbit.Propagator, len(cfg.Constellations))
	for ci, cons := range cfg.Constellations {
		props, err := cons.Propagators()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		consProps[ci] = props
	}
	grids, err := propagate(ctx, cfg.RunContext, cfg.Start, end, ephCfg, consProps...)
	if err != nil {
		return nil, err
	}
	consCtxs := make([]consCtx, len(cfg.Constellations))
	for ci, cons := range cfg.Constellations {
		props, grid := consProps[ci], grids[ci]
		gateways := make(map[int]*satellite.Gateway, len(props))
		for i, p := range props {
			gateways[p.Elements().NoradID] = satellite.NewGateway(grid.Sat(i), cons.BeaconInterval, 0)
		}
		consCtxs[ci] = consCtx{cons: cons, props: props, grid: grid, gateways: gateways}
	}

	// Fan the (site × constellation) pairs across workers.
	type pairRef struct {
		s *siteCtx
		c *consCtx
	}
	pairs := make([]pairRef, 0, len(siteCtxs)*len(consCtxs))
	for si := range siteCtxs {
		for ci := range consCtxs {
			pairs = append(pairs, pairRef{&siteCtxs[si], &consCtxs[ci]})
		}
	}
	units := make([]passiveUnit, len(pairs))
	if err := forEachCheckpointed(ctx, cfg.RunContext, "contacts", units, nil, nil, func(i int) (passiveUnit, error) {
		p := pairs[i]
		return runPassiveSiteConstellation(ctx, cfg, p.s.site, p.s.stations, p.c, p.s.weather, p.s.start, end, p.s.outages)
	}); err != nil {
		return nil, err
	}
	// A cancel that arrived after the last pass check, while the final
	// units finished, still aborts the campaign.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.Shard != nil {
		// Shard run: the windowed units have been handed to cfg.Checkpoint;
		// skip assembly — the merge node restores every unit and assembles.
		return res, nil
	}
	var nContacts, nRecords int
	for i := range units {
		nContacts += len(units[i].Contacts)
		nRecords += len(units[i].Records)
	}
	res.Contacts = make([]ContactStat, 0, nContacts)
	res.Dataset.Records = make([]trace.Record, 0, nRecords)
	for i := range units {
		res.Contacts = append(res.Contacts, units[i].Contacts...)
		res.Dataset.Records = append(res.Dataset.Records, units[i].Records...)
	}
	res.Dataset.SortByTime()
	return res, nil
}

// consCtx bundles one constellation with its shared propagators, its
// batch-sampled ephemeris grid and its gateways, built once per campaign
// and read by every (site, constellation) worker. The gateways are backed
// by the grid's shared ephemeris views and used read-only (beacon grids
// and geometry queries), so sharing them across site workers is safe.
type consCtx struct {
	cons     constellation.Constellation
	props    []*orbit.Propagator
	grid     *orbit.EphemerisGrid
	gateways map[int]*satellite.Gateway
}

// passiveUnit is the output of one (site, constellation) worker, merged
// into the campaign result in serial order. Its fields are exported so a
// unit snapshot serializes completely for checkpoint/resume.
type passiveUnit struct {
	Contacts []ContactStat  `json:"contacts,omitempty"`
	Records  []trace.Record `json:"records,omitempty"`
}

// runPassiveSiteConstellation simulates one (site, constellation) pair. It
// reads the constellation's shared ephemeris grid and gateways — both safe
// for concurrent read-only use — so concurrent invocations never share
// mutable state. Under fault injection the tuning plan is clipped against
// the per-station outage windows before indexing, so a downed station
// simply isn't tuned — the effective contact shortfall emerges from churn
// rather than being modelled directly.
func runPassiveSiteConstellation(ctx context.Context, cfg PassiveConfig, site Site, stations []groundstation.Station, cc *consCtx, weather WeatherProvider, start, end time.Time, outages map[string][]orbit.Window) (passiveUnit, error) {
	cons := cc.cons

	// Predict all passes of the constellation over the site from the
	// shared grid, sweeping one reused predictor across the satellites.
	passes := make([]orbit.Pass, 0, 256)
	pp := orbit.NewEphemerisPredictor(cc.grid.Sat(0))
	for i := range cc.props {
		if err := ctx.Err(); err != nil {
			return passiveUnit{}, err
		}
		pp.SetSource(cc.grid.Sat(i))
		passes = pp.PassesAppend(passes, site.Location, start, end, cfg.MinElevationRad)
	}
	gateways := cc.gateways

	plan := cfg.Scheduler.Plan(stations, passes, start, end)
	plan = groundstation.ClipAssignments(plan, outages)
	planIdx := groundstation.NewPlanIndex(plan)

	// Station-side receive chains: one channel realization per station.
	rxParams := lora.DefaultDtSParams()
	if cfg.Radio != nil {
		rxParams = *cfg.Radio
	}
	// A site has a handful of stations, so the per-station state is
	// parallel slices with a linear ID lookup — cheaper to build and to
	// query than string-keyed maps.
	links := make([]*radio.Link, len(stations))
	observers := make([]orbit.Observer, len(stations))
	for si, st := range stations {
		model := channel.NewModel(sim.NewRNG(cfg.Seed, "chan/"+st.ID+"/"+cons.Name))
		model.ShadowSigmaDB = 1.8
		links[si] = radio.NewLink(rxParams, DtSDownlinkBudget(cons.TxPowerDBm), model, cons.FreqMHz, sim.NewRNG(cfg.Seed, "rx/"+st.ID+"/"+cons.Name))
		observers[si] = orbit.NewObserver(st.Location)
	}
	stationIdx := func(id string) int {
		for si := range stations {
			if stations[si].ID == id {
				return si
			}
		}
		return -1
	}

	unit := passiveUnit{
		Contacts: make([]ContactStat, 0, len(passes)),
		Records:  make([]trace.Record, 0, 256),
	}
	beaconBuf := make([]time.Time, 0, 128)
	// posArena backs every contact's RxPositions for this unit: each
	// contact's positions are appended contiguously and published as a
	// capacity-capped subslice, so the unit performs a few arena growths
	// instead of one allocation per covered contact. Growth reallocations
	// are safe: already-published subslices keep their old backing array.
	posArena := make([]float64, 0, 256)
	for _, pass := range passes {
		if err := ctx.Err(); err != nil {
			return unit, err
		}
		gw := gateways[pass.NoradID]
		stat := ContactStat{
			Site:          site.Code,
			Constellation: cons.Name,
			SatName:       pass.Name,
			NoradID:       pass.NoradID,
			Pass:          pass,
			WeatherAtTCA:  weather.At(pass.TCA),
		}
		beaconBuf = gw.AppendBeaconTimes(beaconBuf[:0], pass.AOS, pass.LOS)
		posStart := len(posArena)
		for _, bt := range beaconBuf {
			// Which station is tuned to this satellite now?
			a, ok := planIdx.Covering(pass.NoradID, bt)
			if !ok {
				continue
			}
			si := stationIdx(a.StationID)
			if si < 0 {
				continue
			}
			covering := &stations[si]
			stat.Covered = true
			stat.BeaconsSent++

			la, err := gw.GeometryAt(observers[si], bt)
			if err != nil {
				continue
			}
			if la.Elevation < covering.MinElevationRad {
				continue
			}
			w := weather.At(bt)
			rc := links[si].Transmit(radio.Geometry{
				At:           bt,
				DistanceKm:   la.RangeKm,
				ElevationRad: la.Elevation,
				RangeRateKmS: la.RangeRate,
			}, w, cons.BeaconPayloadBytes)
			if !rc.Decoded {
				continue
			}

			stat.BeaconsReceived++
			if stat.FirstRx.IsZero() {
				stat.FirstRx = bt
			}
			stat.LastRx = bt
			if d := pass.Duration(); d > 0 {
				posArena = append(posArena, float64(bt.Sub(pass.AOS))/float64(d))
			}

			alt, _ := gw.AltitudeAt(bt)
			unit.Records = append(unit.Records, trace.Record{
				At:            bt,
				Kind:          trace.KindBeacon,
				Station:       covering.ID,
				Site:          site.Code,
				Constellation: cons.Name,
				SatName:       pass.Name,
				NoradID:       pass.NoradID,
				FreqMHz:       cons.FreqMHz,
				RSSIDBm:       rc.RSSIDBm,
				SNRDB:         rc.SNRDB,
				ElevationDeg:  la.ElevationDeg(),
				AzimuthDeg:    la.AzimuthDeg(),
				RangeKm:       la.RangeKm,
				SatAltKm:      alt,
				DopplerHz:     rc.DopplerHz,
				PayloadBytes:  cons.BeaconPayloadBytes,
				Weather:       w.String(),
			})
		}
		if len(posArena) > posStart {
			stat.RxPositions = posArena[posStart:len(posArena):len(posArena)]
		}
		unit.Contacts = append(unit.Contacts, stat)
	}
	return unit, nil
}
