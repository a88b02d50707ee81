// Package service is the campaign-serving layer behind cmd/sinetd: it
// turns the one-shot simulation library into long-lived infrastructure.
// Campaign requests arrive as JSON JobSpecs, are canonicalized and hashed
// into content-addressed ConfigKeys, executed on a bounded worker pool with
// admission control, and their results cached so identical submissions —
// concurrent or later — cost one simulation.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/sinet-io/sinet/internal/channel"
	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/core"
	"github.com/sinet-io/sinet/internal/fault"
	"github.com/sinet-io/sinet/internal/groundstation"
	"github.com/sinet-io/sinet/internal/netgraph"
	"github.com/sinet-io/sinet/internal/orbit"
)

// ErrBadSpec is the sentinel wrapped by every spec validation failure, so
// the HTTP layer can map the whole family to 400 with errors.Is.
var ErrBadSpec = errors.New("service: invalid job spec")

func specErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSpec, fmt.Sprintf(format, args...))
}

// Job kinds accepted by the API.
const (
	KindPassive  = "passive"
	KindActive   = "active"
	KindCoverage = "coverage"
	KindBackhaul = "backhaul"
	KindRouting  = "routing"
)

// section is one job kind's parameter section of a JobSpec. The kind's
// whole serving behaviour lives on it: how it normalizes, how many units
// its checkpointable phase fans out (the quantity shard windows
// partition), and how it runs. units and run require a normalized spec.
type section interface {
	normalize() error
	units() (int, error)
	run(ctx context.Context, rc core.RunContext) (any, error)
}

// kind is one entry of the job-kind registry.
type kind struct {
	name string
	// section returns the spec's parameter section for this kind, nil when
	// unset; with alloc, an unset section is first set to its zero value.
	section func(s *JobSpec, alloc bool) section
}

// kinds is the job-kind registry, the one place a kind is wired into the
// serving layer: Normalize, Run, shard unit counting, every kind-related
// 400 message and the campaign-duration metric all read it. Adding a kind
// is one core campaign, one JobSpec section and one entry here.
var kinds = []kind{
	{KindPassive, sectionOf(func(s *JobSpec) **PassiveSpec { return &s.Passive })},
	{KindActive, sectionOf(func(s *JobSpec) **ActiveSpec { return &s.Active })},
	{KindCoverage, sectionOf(func(s *JobSpec) **CoverageSpec { return &s.Coverage })},
	{KindBackhaul, sectionOf(func(s *JobSpec) **BackhaulSpec { return &s.Backhaul })},
	{KindRouting, sectionOf(func(s *JobSpec) **RoutingSpec { return &s.Routing })},
}

// sectionOf builds a registry section accessor from the JobSpec field that
// holds the kind's section.
func sectionOf[T any, P interface {
	*T
	section
}](field func(*JobSpec) *P) func(*JobSpec, bool) section {
	return func(s *JobSpec, alloc bool) section {
		p := field(s)
		if *p == nil && alloc {
			*p = new(T)
		}
		if *p == nil {
			return nil
		}
		return *p
	}
}

// kindOf looks the spec's kind up in the registry.
func (s *JobSpec) kindOf() (kind, error) {
	for _, k := range kinds {
		if k.name == s.Kind {
			return k, nil
		}
	}
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.name
	}
	if s.Kind == "" {
		return kind{}, specErr("kind is required (%s)", strings.Join(names, ", "))
	}
	return kind{}, specErr("unknown kind %q (%s)", s.Kind, strings.Join(names, ", "))
}

// Serving-side admission bounds: a daemon serving many clients must bound
// the work one request can demand. These are generous for every workload
// in EXPERIMENTS.md; campaigns beyond them belong in the offline CLIs.
const (
	maxDays      = 370
	maxLatitudes = 181
	maxNodes     = 256
	maxSweepLen  = 64
)

// Duration is a time.Duration that marshals as a Go duration string
// ("72h30m") and unmarshals from either that form or raw nanoseconds, so
// hand-written curl bodies and round-tripped JSON both parse.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("service: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(data, &ns); err != nil {
		return fmt.Errorf("service: duration must be a string like \"30m\" or integer nanoseconds")
	}
	*d = Duration(ns)
	return nil
}

// JobSpec is one campaign request: a kind plus exactly the matching
// parameter section. The zero values of every section field mean "use the
// library default"; Normalize makes those defaults explicit so equal
// requests — however sparsely written — canonicalize to equal ConfigKeys.
type JobSpec struct {
	Kind     string        `json:"kind"`
	Passive  *PassiveSpec  `json:"passive,omitempty"`
	Active   *ActiveSpec   `json:"active,omitempty"`
	Coverage *CoverageSpec `json:"coverage,omitempty"`
	Backhaul *BackhaulSpec `json:"backhaul,omitempty"`
	Routing  *RoutingSpec  `json:"routing,omitempty"`
	// Shard, when set, marks this spec as one shard of its parent
	// campaign: Run computes only the shard's unit window and returns a
	// ShardResult of unit snapshots instead of the campaign result. The
	// clause participates in content addressing (the derived key is
	// "parent/shard/i-of-n") because a shard fragment must never alias
	// the full result. Normally authored by SplitSpec, not by clients.
	Shard *ShardSpec `json:"shard,omitempty"`
}

// WindowSpec is one maintenance window.
type WindowSpec struct {
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

// FaultSpec mirrors fault.Config in API form.
type FaultSpec struct {
	StationMTBF Duration     `json:"station_mtbf,omitempty"`
	StationMTTR Duration     `json:"station_mttr,omitempty"`
	DrainMTBF   Duration     `json:"drain_mtbf,omitempty"`
	DrainMTTR   Duration     `json:"drain_mttr,omitempty"`
	SatMTBF     Duration     `json:"sat_mtbf,omitempty"`
	SatMTTR     Duration     `json:"sat_mttr,omitempty"`
	LinkMTBF    Duration     `json:"link_mtbf,omitempty"`
	LinkMTTR    Duration     `json:"link_mttr,omitempty"`
	Maintenance []WindowSpec `json:"maintenance,omitempty"`
}

func (f *FaultSpec) config() *fault.Config {
	if f == nil {
		return nil
	}
	cfg := &fault.Config{
		StationMTBF: time.Duration(f.StationMTBF),
		StationMTTR: time.Duration(f.StationMTTR),
		DrainMTBF:   time.Duration(f.DrainMTBF),
		DrainMTTR:   time.Duration(f.DrainMTTR),
		SatMTBF:     time.Duration(f.SatMTBF),
		SatMTTR:     time.Duration(f.SatMTTR),
		LinkMTBF:    time.Duration(f.LinkMTBF),
		LinkMTTR:    time.Duration(f.LinkMTTR),
	}
	for _, w := range f.Maintenance {
		cfg.Maintenance = append(cfg.Maintenance, orbit.Window{Start: w.Start, End: w.End})
	}
	return cfg
}

// PassiveSpec parameterizes a §3.1 passive campaign.
type PassiveSpec struct {
	Seed            int64      `json:"seed"`
	Start           time.Time  `json:"start,omitempty"`
	Days            int        `json:"days,omitempty"`
	Sites           []string   `json:"sites,omitempty"`
	Constellations  []string   `json:"constellations,omitempty"`
	Scheduler       string     `json:"scheduler,omitempty"`
	MinElevationDeg float64    `json:"min_elevation_deg,omitempty"`
	CoarseStep      Duration   `json:"coarse_step,omitempty"`
	HonorSiteStart  bool       `json:"honor_site_start,omitempty"`
	Weather         string     `json:"weather,omitempty"`
	Faults          *FaultSpec `json:"faults,omitempty"`
}

// ActiveSpec parameterizes a §3.2 active campaign.
type ActiveSpec struct {
	Seed                         int64      `json:"seed"`
	Start                        time.Time  `json:"start,omitempty"`
	Days                         int        `json:"days,omitempty"`
	Nodes                        int        `json:"nodes,omitempty"`
	PayloadBytes                 int        `json:"payload_bytes,omitempty"`
	SensePeriod                  Duration   `json:"sense_period,omitempty"`
	MaxRetx                      int        `json:"max_retx,omitempty"`
	AckTimeout                   Duration   `json:"ack_timeout,omitempty"`
	AlignedPhases                bool       `json:"aligned_phases,omitempty"`
	SleepWhenIdle                bool       `json:"sleep_when_idle,omitempty"`
	ScheduleAwareMinElevationDeg float64    `json:"schedule_aware_min_elevation_deg,omitempty"`
	TxGateMarginDB               float64    `json:"tx_gate_margin_db,omitempty"`
	Antenna                      string     `json:"antenna,omitempty"`
	Constellation                string     `json:"constellation,omitempty"`
	Weather                      string     `json:"weather,omitempty"`
	Faults                       *FaultSpec `json:"faults,omitempty"`
}

// CoverageSpec parameterizes a theoretical coverage/revisit sweep.
type CoverageSpec struct {
	Constellation string    `json:"constellation,omitempty"`
	LatitudesDeg  []float64 `json:"latitudes_deg,omitempty"`
	Start         time.Time `json:"start,omitempty"`
	Days          int       `json:"days,omitempty"`
}

// RoutingSpec parameterizes a store-and-forward-vs-ISL-relay routing
// campaign over the time-varying network graph.
type RoutingSpec struct {
	Seed           int64      `json:"seed"`
	Start          time.Time  `json:"start,omitempty"`
	Days           int        `json:"days,omitempty"`
	Constellation  string     `json:"constellation,omitempty"`
	SnapshotStep   Duration   `json:"snapshot_step,omitempty"`
	MaxISLRangeKm  float64    `json:"max_isl_range_km,omitempty"`
	HopProcessing  Duration   `json:"hop_processing,omitempty"`
	PacketInterval Duration   `json:"packet_interval,omitempty"`
	Policy         string     `json:"policy,omitempty"`
	Faults         *FaultSpec `json:"faults,omitempty"`
}

// BackhaulSpec parameterizes a downlink-opportunity sweep over the
// operator's ground segment.
type BackhaulSpec struct {
	Constellation string    `json:"constellation,omitempty"`
	Start         time.Time `json:"start,omitempty"`
	Days          int       `json:"days,omitempty"`
	Step          Duration  `json:"step,omitempty"`
	MinDrainGap   Duration  `json:"min_drain_gap,omitempty"`
}

func constellationByName(name string, epoch time.Time) (constellation.Constellation, error) {
	if cons, ok := constellation.ByName(name, epoch); ok {
		return cons, nil
	}
	return constellation.Constellation{}, specErr("unknown constellation %q (one of %s)", name, strings.Join(constellation.Names(), ", "))
}

// satCount is the satellite count of the named constellation: the unit
// count of every per-satellite checkpointable phase.
func satCount(name string, epoch time.Time) (int, error) {
	cons, err := constellationByName(name, epoch)
	return len(cons.Sats), err
}

func weatherProvider(name string) (core.WeatherProvider, error) {
	switch strings.ToLower(name) {
	case "":
		return nil, nil
	case "sunny":
		return core.ConstantWeather{State: channel.Sunny}, nil
	case "cloudy":
		return core.ConstantWeather{State: channel.Cloudy}, nil
	case "rainy":
		return core.ConstantWeather{State: channel.Rainy}, nil
	case "stormy":
		return core.ConstantWeather{State: channel.Stormy}, nil
	}
	return nil, specErr("unknown weather %q (sunny, cloudy, rainy, stormy, or empty for stochastic)", name)
}

// Normalize validates the spec and rewrites every defaulted field to its
// explicit value, the canonical form ConfigKey hashes. It is idempotent.
// A spec may set only its own kind's parameter section.
func (s *JobSpec) Normalize() error {
	k, err := s.kindOf()
	if err != nil {
		return err
	}
	for _, other := range kinds {
		if other.name != k.name && other.section(s, false) != nil {
			return specErr("exactly one parameter section may be set, the kind's own: kind %q cannot take the %q section", k.name, other.name)
		}
	}
	if err := k.section(s, true).normalize(); err != nil {
		return err
	}
	return s.validateShard()
}

// validConfig checks the core config a section builds, mapping a config
// validation failure to ErrBadSpec.
func validConfig[C interface{ Validate() error }](cfg C, err error) error {
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return nil
}

// servingEpoch is the default campaign start of every kind but active.
var servingEpoch = time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)

// normalizeSpan validates days against the serving limit and makes a
// campaign span explicit: days defaults to 1 and start to the kind's
// default epoch, in UTC.
func normalizeSpan(days *int, start *time.Time, epoch time.Time) error {
	if *days < 0 {
		return specErr("days must be non-negative, got %d", *days)
	}
	if *days > maxDays {
		return specErr("days %d exceeds the serving limit %d", *days, maxDays)
	}
	if *days == 0 {
		*days = 1
	}
	if start.IsZero() {
		*start = epoch
	}
	*start = start.UTC()
	return nil
}

// normalizeConstellation defaults an empty constellation name to Tianqi
// and rewrites it to the catalog's canonical spelling.
func normalizeConstellation(name *string, epoch time.Time) error {
	if *name == "" {
		*name = "Tianqi"
	}
	cons, err := constellationByName(*name, epoch)
	if err != nil {
		return err
	}
	*name = cons.Name
	return nil
}

func (p *PassiveSpec) normalize() error {
	if err := normalizeSpan(&p.Days, &p.Start, servingEpoch); err != nil {
		return err
	}
	if len(p.Sites) == 0 {
		p.Sites = []string{"HK", "SYD", "LDN", "PGH"}
	}
	for i, code := range p.Sites {
		code = strings.ToUpper(strings.TrimSpace(code))
		if _, ok := core.SiteByCode(code); !ok {
			return specErr("unknown site %q", p.Sites[i])
		}
		p.Sites[i] = code
	}
	if len(p.Constellations) == 0 {
		p.Constellations = constellation.Names()
	}
	for i, name := range p.Constellations {
		cons, err := constellationByName(name, p.Start)
		if err != nil {
			return err
		}
		p.Constellations[i] = cons.Name
	}
	switch strings.ToLower(p.Scheduler) {
	case "", "tracking":
		p.Scheduler = "tracking"
	case "roundrobin":
		p.Scheduler = "roundrobin"
	default:
		return specErr("unknown scheduler %q (tracking, roundrobin)", p.Scheduler)
	}
	if p.CoarseStep < 0 {
		return specErr("coarse_step must be non-negative, got %v", time.Duration(p.CoarseStep))
	}
	if p.CoarseStep == 0 {
		p.CoarseStep = Duration(60 * time.Second)
	}
	p.Weather = strings.ToLower(p.Weather)
	if _, err := weatherProvider(p.Weather); err != nil {
		return err
	}
	return validConfig(p.config())
}

// config builds the core campaign config the spec denotes. Only Normalize-d
// specs build configs the campaign accepts.
func (p *PassiveSpec) config() (core.PassiveConfig, error) {
	cfg := core.PassiveConfig{
		Seed:            p.Seed,
		Start:           p.Start,
		Days:            p.Days,
		MinElevationRad: p.MinElevationDeg * deg2Rad,
		CoarseStep:      time.Duration(p.CoarseStep),
		HonorSiteStart:  p.HonorSiteStart,
		Faults:          p.Faults.config(),
	}
	for _, code := range p.Sites {
		site, ok := core.SiteByCode(code)
		if !ok {
			return cfg, specErr("unknown site %q", code)
		}
		cfg.Sites = append(cfg.Sites, site)
	}
	for _, name := range p.Constellations {
		cons, err := constellationByName(name, p.Start)
		if err != nil {
			return cfg, err
		}
		cfg.Constellations = append(cfg.Constellations, cons)
	}
	if p.Scheduler == "roundrobin" {
		var catalog []int
		for _, c := range cfg.Constellations {
			for _, sat := range c.Sats {
				catalog = append(catalog, sat.NoradID)
			}
		}
		cfg.Scheduler = groundstation.RoundRobinScheduler{Catalog: catalog, Slot: 10 * time.Minute}
	}
	w, err := weatherProvider(p.Weather)
	if err != nil {
		return cfg, err
	}
	cfg.Weather = w
	return cfg, nil
}

func (p *PassiveSpec) units() (int, error) { return len(p.Sites) * len(p.Constellations), nil }

func (p *PassiveSpec) run(ctx context.Context, rc core.RunContext) (any, error) {
	cfg, err := p.config()
	if err != nil {
		return nil, err
	}
	cfg.RunContext = rc
	return core.RunPassiveCtx(ctx, cfg)
}

func (a *ActiveSpec) normalize() error {
	if err := normalizeSpan(&a.Days, &a.Start, time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		return err
	}
	if a.Nodes < 0 {
		return specErr("nodes must be non-negative, got %d", a.Nodes)
	}
	if a.Nodes > maxNodes {
		return specErr("nodes %d exceeds the serving limit %d", a.Nodes, maxNodes)
	}
	if a.Nodes == 0 {
		a.Nodes = 3
	}
	if a.PayloadBytes == 0 {
		a.PayloadBytes = 20
	}
	if a.SensePeriod == 0 {
		a.SensePeriod = Duration(30 * time.Minute)
	}
	if a.MaxRetx < 0 {
		return specErr("max_retx must be non-negative, got %d", a.MaxRetx)
	}
	if a.AckTimeout == 0 {
		a.AckTimeout = Duration(3 * time.Second)
	}
	switch strings.ToLower(a.Antenna) {
	case "", "fiveeighths", "5/8":
		a.Antenna = "fiveeighths"
	case "quarter", "1/4":
		a.Antenna = "quarter"
	default:
		return specErr("unknown antenna %q (quarter, fiveeighths)", a.Antenna)
	}
	if err := normalizeConstellation(&a.Constellation, a.Start); err != nil {
		return err
	}
	a.Weather = strings.ToLower(a.Weather)
	if _, err := weatherProvider(a.Weather); err != nil {
		return err
	}
	return validConfig(a.config())
}

func (a *ActiveSpec) config() (core.ActiveConfig, error) {
	cfg := core.ActiveConfig{
		Seed:                         a.Seed,
		Start:                        a.Start,
		Days:                         a.Days,
		Nodes:                        a.Nodes,
		PayloadBytes:                 a.PayloadBytes,
		SensePeriod:                  time.Duration(a.SensePeriod),
		AlignedPhases:                a.AlignedPhases,
		SleepWhenIdle:                a.SleepWhenIdle,
		ScheduleAwareMinElevationRad: a.ScheduleAwareMinElevationDeg * deg2Rad,
		TxGateMarginDB:               a.TxGateMarginDB,
		Faults:                       a.Faults.config(),
	}
	cfg.Policy.MaxRetx = a.MaxRetx
	cfg.Policy.AckTimeout = time.Duration(a.AckTimeout)
	if a.Antenna == "quarter" {
		cfg.NodeAntenna = channel.QuarterWave
	} else {
		cfg.NodeAntenna = channel.FiveEighthsWave
	}
	if !strings.EqualFold(a.Constellation, "Tianqi") {
		cons, err := constellationByName(a.Constellation, a.Start)
		if err != nil {
			return cfg, err
		}
		cfg.Constellation = &cons
	}
	w, err := weatherProvider(a.Weather)
	if err != nil {
		return cfg, err
	}
	cfg.Weather = w
	return cfg, nil
}

func (a *ActiveSpec) units() (int, error) { return satCount(a.Constellation, a.Start) }

func (a *ActiveSpec) run(ctx context.Context, rc core.RunContext) (any, error) {
	cfg, err := a.config()
	if err != nil {
		return nil, err
	}
	cfg.RunContext = rc
	return core.RunActiveCtx(ctx, cfg)
}

func (c *CoverageSpec) normalize() error {
	if err := normalizeSpan(&c.Days, &c.Start, servingEpoch); err != nil {
		return err
	}
	if err := normalizeConstellation(&c.Constellation, c.Start); err != nil {
		return err
	}
	if len(c.LatitudesDeg) == 0 {
		c.LatitudesDeg = []float64{-60, -45, -30, -15, 0, 15, 30, 45, 60}
	}
	if len(c.LatitudesDeg) > maxLatitudes {
		return specErr("latitudes_deg length %d exceeds the serving limit %d", len(c.LatitudesDeg), maxLatitudes)
	}
	for _, lat := range c.LatitudesDeg {
		if lat < -90 || lat > 90 || lat != lat {
			return specErr("latitude %v out of [-90, 90]", lat)
		}
	}
	return nil
}

func (c *CoverageSpec) units() (int, error) { return len(c.LatitudesDeg), nil }

func (c *CoverageSpec) run(ctx context.Context, rc core.RunContext) (any, error) {
	cons, err := constellationByName(c.Constellation, c.Start)
	if err != nil {
		return nil, err
	}
	return core.RevisitAnalysisCtx(ctx, cons, c.LatitudesDeg, c.Start, c.Days, rc)
}

func (r *RoutingSpec) normalize() error {
	if err := normalizeSpan(&r.Days, &r.Start, servingEpoch); err != nil {
		return err
	}
	if err := normalizeConstellation(&r.Constellation, r.Start); err != nil {
		return err
	}
	if r.SnapshotStep < 0 || r.HopProcessing < 0 || r.PacketInterval < 0 {
		return specErr("snapshot_step, hop_processing and packet_interval must be non-negative")
	}
	if r.SnapshotStep == 0 {
		r.SnapshotStep = Duration(netgraph.DefaultSnapshotStep)
	}
	if r.MaxISLRangeKm < 0 || r.MaxISLRangeKm != r.MaxISLRangeKm {
		return specErr("max_isl_range_km must be non-negative, got %v", r.MaxISLRangeKm)
	}
	if r.MaxISLRangeKm == 0 {
		r.MaxISLRangeKm = netgraph.DefaultMaxISLRangeKm
	}
	if r.HopProcessing == 0 {
		r.HopProcessing = Duration(netgraph.DefaultHopProcessing)
	}
	if r.PacketInterval == 0 {
		r.PacketInterval = Duration(30 * time.Minute)
	}
	switch strings.ToLower(r.Policy) {
	case "", core.PolicyCompare:
		r.Policy = core.PolicyCompare
	case core.PolicyStore:
		r.Policy = core.PolicyStore
	case core.PolicyRelay:
		r.Policy = core.PolicyRelay
	default:
		return specErr("unknown policy %q (%s, %s, %s)", r.Policy, core.PolicyStore, core.PolicyRelay, core.PolicyCompare)
	}
	return validConfig(r.config())
}

func (r *RoutingSpec) config() (core.RoutingConfig, error) {
	cfg := core.RoutingConfig{
		Seed:           r.Seed,
		Start:          r.Start,
		Days:           r.Days,
		SnapshotStep:   time.Duration(r.SnapshotStep),
		MaxISLRangeKm:  r.MaxISLRangeKm,
		HopProcessing:  time.Duration(r.HopProcessing),
		PacketInterval: time.Duration(r.PacketInterval),
		Policy:         r.Policy,
		Faults:         r.Faults.config(),
	}
	if !strings.EqualFold(r.Constellation, "Tianqi") {
		cons, err := constellationByName(r.Constellation, r.Start)
		if err != nil {
			return cfg, err
		}
		cfg.Constellation = &cons
	}
	return cfg, nil
}

func (r *RoutingSpec) units() (int, error) { return satCount(r.Constellation, r.Start) }

func (r *RoutingSpec) run(ctx context.Context, rc core.RunContext) (any, error) {
	cfg, err := r.config()
	if err != nil {
		return nil, err
	}
	cfg.RunContext = rc
	return core.RunRoutingCtx(ctx, cfg)
}

func (b *BackhaulSpec) normalize() error {
	if err := normalizeSpan(&b.Days, &b.Start, servingEpoch); err != nil {
		return err
	}
	if err := normalizeConstellation(&b.Constellation, b.Start); err != nil {
		return err
	}
	if b.Step < 0 || b.MinDrainGap < 0 {
		return specErr("step and min_drain_gap must be non-negative")
	}
	if b.Step == 0 {
		b.Step = Duration(time.Minute)
	}
	if b.MinDrainGap == 0 {
		b.MinDrainGap = Duration(150 * time.Minute)
	}
	return nil
}

func (b *BackhaulSpec) units() (int, error) { return satCount(b.Constellation, b.Start) }

func (b *BackhaulSpec) run(ctx context.Context, rc core.RunContext) (any, error) {
	cons, err := constellationByName(b.Constellation, b.Start)
	if err != nil {
		return nil, err
	}
	return core.RunBackhaulCtx(ctx, core.BackhaulConfig{
		Constellation: cons,
		Start:         b.Start,
		Days:          b.Days,
		Step:          time.Duration(b.Step),
		MinDrainGap:   time.Duration(b.MinDrainGap),
		RunContext:    rc,
	})
}

const deg2Rad = 3.14159265358979323846 / 180

// Run executes the spec and returns its result struct — the value the
// serving layer marshals with MarshalResult. The spec must be Normalize-d.
// The RunContext hooks (all optional) observe the campaign's phases and
// thread checkpoint capture/resume through it; a cancelled context aborts
// the run with ctx.Err(). rc.Shard is ignored: shard identity is part of
// the content key, so only spec.Shard shards a run, and a shard sub-spec
// returns a *ShardResult of its window's unit snapshots instead of a
// campaign result.
func Run(ctx context.Context, spec *JobSpec, rc RunContext) (any, error) {
	k, err := spec.kindOf()
	if err != nil {
		return nil, err
	}
	sec := k.section(spec, false)
	rc.Shard = nil
	if spec.Shard != nil {
		return runShard(ctx, spec.Shard, sec, rc)
	}
	return sec.run(ctx, rc)
}

// MarshalResult is the canonical result serialization: every path that
// produces result bytes — fresh run, cache fill, smoke-test golden — uses
// it, which is what makes "cached vs fresh" and "served vs direct library
// call" byte-identical comparisons meaningful.
func MarshalResult(v any) ([]byte, error) {
	return json.Marshal(v)
}
