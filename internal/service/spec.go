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
// whole serving behaviour lives in its one method: campaign normalizes the
// section in place, then builds and validates the core config once.
type section interface {
	campaign() (campaign, error)
}

// campaign is a normalized section's core campaign: how many units its
// checkpointable phase fans out (the quantity shard windows partition)
// and the run of the config the section denotes.
type campaign struct {
	units int
	run   func(ctx context.Context, rc core.RunContext) (any, error)
}

// kind is one entry of the job-kind registry.
type kind struct {
	name string
	// section returns the spec's parameter section for this kind, nil when
	// unset; with alloc, an unset section is first set to its zero value.
	section func(s *JobSpec, alloc bool) section
}

// kinds is the job-kind registry, the one place a kind is wired into the
// serving layer: Normalize, Run, ShardCount, every kind-related 400
// message and the campaign-duration metric all read it. Adding a kind is
// one core campaign, one JobSpec section and one entry here.
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
	_, err := s.campaign()
	return err
}

// campaign normalizes the spec in place and builds its kind's campaign.
func (s *JobSpec) campaign() (campaign, error) {
	k, err := s.kindOf()
	if err != nil {
		return campaign{}, err
	}
	for _, other := range kinds {
		if other.name != k.name && other.section(s, false) != nil {
			return campaign{}, specErr("exactly one parameter section may be set, the kind's own: kind %q cannot take the %q section", k.name, other.name)
		}
	}
	c, err := k.section(s, true).campaign()
	if err != nil {
		return campaign{}, err
	}
	return c, s.validateShard(c.units)
}

// clone deep-copies the spec through its JSON form, which round-trips
// exactly.
func (s *JobSpec) clone() (*JobSpec, error) {
	raw, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("service: copy spec: %w", err)
	}
	c := new(JobSpec)
	if err := json.Unmarshal(raw, c); err != nil {
		return nil, fmt.Errorf("service: copy spec: %w", err)
	}
	return c, nil
}

// servingEpoch is the default campaign start of every kind but active.
var servingEpoch = time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)

// spanLimit bounds a campaign's span: JSON times hold years 0 to 9999
// only, so a span reaching past them could run but never marshal its
// result.
var spanLimit = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)

// normalizeSpan validates days against the serving limit and makes a
// campaign span explicit: days defaults to 1 and start to the kind's
// default epoch, in UTC. The span must start in year 0 or later and, plus
// one day, end by spanLimit; the extra day covers the delivery grace
// active and routing run past the span.
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
	if start.Year() < 0 {
		return specErr("start %s is before year 0", start.Format(time.RFC3339))
	}
	if start.Add(time.Duration(*days+1) * 24 * time.Hour).After(spanLimit) {
		return specErr("start %s plus %d days runs past year 9999", start.Format(time.RFC3339), *days)
	}
	return nil
}

// duration rejects a negative duration field and fills in its default.
func duration(field string, d *Duration, def time.Duration) error {
	if *d < 0 {
		return specErr("%s must be non-negative, got %v", field, time.Duration(*d))
	}
	if *d == 0 {
		*d = Duration(def)
	}
	return nil
}

// cadence is duration for a field that steps through the campaign span.
// It also rejects a step finer than def × days / maxDays, so no cadence
// takes more steps than its default takes over maxDays. Step counts size
// allocations: a 10µs routing snapshot step asks netgraph for a
// terabyte-scale slice, and the out-of-memory throw that follows is past
// any recover.
func cadence(field string, d *Duration, def time.Duration, days int) error {
	if err := duration(field, d, def); err != nil {
		return err
	}
	if floor := def * time.Duration(days) / maxDays; time.Duration(*d) < floor {
		return specErr("%s %v is finer than the serving limit %v for a %d-day campaign", field, time.Duration(*d), floor, days)
	}
	return nil
}

// normalizeConstellation defaults an empty constellation name to Tianqi,
// rewrites it to the catalog's canonical spelling and returns the fleet.
func normalizeConstellation(name *string, epoch time.Time) (constellation.Constellation, error) {
	if *name == "" {
		*name = "Tianqi"
	}
	cons, err := constellationByName(*name, epoch)
	if err != nil {
		return cons, err
	}
	*name = cons.Name
	return cons, nil
}

func (p *PassiveSpec) campaign() (campaign, error) {
	if err := normalizeSpan(&p.Days, &p.Start, servingEpoch); err != nil {
		return campaign{}, err
	}
	cfg := core.PassiveConfig{
		Seed:            p.Seed,
		Start:           p.Start,
		Days:            p.Days,
		MinElevationRad: p.MinElevationDeg * deg2Rad,
		HonorSiteStart:  p.HonorSiteStart,
		Faults:          p.Faults.config(),
	}
	if len(p.Sites) == 0 {
		p.Sites = []string{"HK", "SYD", "LDN", "PGH"}
	}
	for i, code := range p.Sites {
		code = strings.ToUpper(strings.TrimSpace(code))
		site, ok := core.SiteByCode(code)
		if !ok {
			return campaign{}, specErr("unknown site %q", p.Sites[i])
		}
		p.Sites[i] = code
		cfg.Sites = append(cfg.Sites, site)
	}
	if len(p.Constellations) == 0 {
		p.Constellations = constellation.Names()
	}
	for i, name := range p.Constellations {
		cons, err := constellationByName(name, p.Start)
		if err != nil {
			return campaign{}, err
		}
		p.Constellations[i] = cons.Name
		cfg.Constellations = append(cfg.Constellations, cons)
	}
	switch strings.ToLower(p.Scheduler) {
	case "", "tracking":
		p.Scheduler = "tracking"
	case "roundrobin":
		p.Scheduler = "roundrobin"
		var catalog []int
		for _, c := range cfg.Constellations {
			for _, sat := range c.Sats {
				catalog = append(catalog, sat.NoradID)
			}
		}
		cfg.Scheduler = groundstation.RoundRobinScheduler{Catalog: catalog, Slot: 10 * time.Minute}
	default:
		return campaign{}, specErr("unknown scheduler %q (tracking, roundrobin)", p.Scheduler)
	}
	if err := cadence("coarse_step", &p.CoarseStep, 60*time.Second, p.Days); err != nil {
		return campaign{}, err
	}
	cfg.CoarseStep = time.Duration(p.CoarseStep)
	p.Weather = strings.ToLower(p.Weather)
	var err error
	if cfg.Weather, err = weatherProvider(p.Weather); err != nil {
		return campaign{}, err
	}
	if err := cfg.Validate(); err != nil {
		return campaign{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return campaign{len(p.Sites) * len(p.Constellations), func(ctx context.Context, rc core.RunContext) (any, error) {
		cfg.RunContext = rc
		return core.RunPassiveCtx(ctx, cfg)
	}}, nil
}

func (a *ActiveSpec) campaign() (campaign, error) {
	if err := normalizeSpan(&a.Days, &a.Start, time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		return campaign{}, err
	}
	if a.Nodes < 0 {
		return campaign{}, specErr("nodes must be non-negative, got %d", a.Nodes)
	}
	if a.Nodes > maxNodes {
		return campaign{}, specErr("nodes %d exceeds the serving limit %d", a.Nodes, maxNodes)
	}
	if a.Nodes == 0 {
		a.Nodes = 3
	}
	if a.PayloadBytes == 0 {
		a.PayloadBytes = 20
	}
	if err := cadence("sense_period", &a.SensePeriod, 30*time.Minute, a.Days); err != nil {
		return campaign{}, err
	}
	if a.MaxRetx < 0 {
		return campaign{}, specErr("max_retx must be non-negative, got %d", a.MaxRetx)
	}
	if err := duration("ack_timeout", &a.AckTimeout, 3*time.Second); err != nil {
		return campaign{}, err
	}
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
	switch strings.ToLower(a.Antenna) {
	case "", "fiveeighths", "5/8":
		a.Antenna = "fiveeighths"
		cfg.NodeAntenna = channel.FiveEighthsWave
	case "quarter", "1/4":
		a.Antenna = "quarter"
		cfg.NodeAntenna = channel.QuarterWave
	default:
		return campaign{}, specErr("unknown antenna %q (quarter, fiveeighths)", a.Antenna)
	}
	cons, err := normalizeConstellation(&a.Constellation, a.Start)
	if err != nil {
		return campaign{}, err
	}
	if cons.Name != "Tianqi" {
		cfg.Constellation = &cons
	}
	a.Weather = strings.ToLower(a.Weather)
	if cfg.Weather, err = weatherProvider(a.Weather); err != nil {
		return campaign{}, err
	}
	if err := cfg.Validate(); err != nil {
		return campaign{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return campaign{len(cons.Sats), func(ctx context.Context, rc core.RunContext) (any, error) {
		cfg.RunContext = rc
		return core.RunActiveCtx(ctx, cfg)
	}}, nil
}

func (c *CoverageSpec) campaign() (campaign, error) {
	if err := normalizeSpan(&c.Days, &c.Start, servingEpoch); err != nil {
		return campaign{}, err
	}
	cons, err := normalizeConstellation(&c.Constellation, c.Start)
	if err != nil {
		return campaign{}, err
	}
	if len(c.LatitudesDeg) == 0 {
		c.LatitudesDeg = []float64{-60, -45, -30, -15, 0, 15, 30, 45, 60}
	}
	if len(c.LatitudesDeg) > maxLatitudes {
		return campaign{}, specErr("latitudes_deg length %d exceeds the serving limit %d", len(c.LatitudesDeg), maxLatitudes)
	}
	for _, lat := range c.LatitudesDeg {
		if lat < -90 || lat > 90 || lat != lat {
			return campaign{}, specErr("latitude %v out of [-90, 90]", lat)
		}
	}
	return campaign{len(c.LatitudesDeg), func(ctx context.Context, rc core.RunContext) (any, error) {
		return core.RevisitAnalysisCtx(ctx, cons, c.LatitudesDeg, c.Start, c.Days, rc)
	}}, nil
}

func (r *RoutingSpec) campaign() (campaign, error) {
	if err := normalizeSpan(&r.Days, &r.Start, servingEpoch); err != nil {
		return campaign{}, err
	}
	cons, err := normalizeConstellation(&r.Constellation, r.Start)
	if err != nil {
		return campaign{}, err
	}
	if err := cadence("snapshot_step", &r.SnapshotStep, netgraph.DefaultSnapshotStep, r.Days); err != nil {
		return campaign{}, err
	}
	if err := duration("hop_processing", &r.HopProcessing, netgraph.DefaultHopProcessing); err != nil {
		return campaign{}, err
	}
	if err := cadence("packet_interval", &r.PacketInterval, 30*time.Minute, r.Days); err != nil {
		return campaign{}, err
	}
	if r.MaxISLRangeKm < 0 || r.MaxISLRangeKm != r.MaxISLRangeKm {
		return campaign{}, specErr("max_isl_range_km must be non-negative, got %v", r.MaxISLRangeKm)
	}
	if r.MaxISLRangeKm == 0 {
		r.MaxISLRangeKm = netgraph.DefaultMaxISLRangeKm
	}
	switch strings.ToLower(r.Policy) {
	case "", core.PolicyCompare:
		r.Policy = core.PolicyCompare
	case core.PolicyStore:
		r.Policy = core.PolicyStore
	case core.PolicyRelay:
		r.Policy = core.PolicyRelay
	default:
		return campaign{}, specErr("unknown policy %q (%s, %s, %s)", r.Policy, core.PolicyStore, core.PolicyRelay, core.PolicyCompare)
	}
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
	if cons.Name != "Tianqi" {
		cfg.Constellation = &cons
	}
	if err := cfg.Validate(); err != nil {
		return campaign{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return campaign{len(cons.Sats), func(ctx context.Context, rc core.RunContext) (any, error) {
		cfg.RunContext = rc
		return core.RunRoutingCtx(ctx, cfg)
	}}, nil
}

func (b *BackhaulSpec) campaign() (campaign, error) {
	if err := normalizeSpan(&b.Days, &b.Start, servingEpoch); err != nil {
		return campaign{}, err
	}
	cons, err := normalizeConstellation(&b.Constellation, b.Start)
	if err != nil {
		return campaign{}, err
	}
	if err := cadence("step", &b.Step, time.Minute, b.Days); err != nil {
		return campaign{}, err
	}
	if err := duration("min_drain_gap", &b.MinDrainGap, 150*time.Minute); err != nil {
		return campaign{}, err
	}
	cfg := core.BackhaulConfig{
		Constellation: cons,
		Start:         b.Start,
		Days:          b.Days,
		Step:          time.Duration(b.Step),
		MinDrainGap:   time.Duration(b.MinDrainGap),
	}
	return campaign{len(cons.Sats), func(ctx context.Context, rc core.RunContext) (any, error) {
		cfg.RunContext = rc
		return core.RunBackhaulCtx(ctx, cfg)
	}}, nil
}

const deg2Rad = 3.14159265358979323846 / 180

// Run executes the spec and returns its result struct — the value the
// serving layer marshals with MarshalResult. It normalizes a private copy,
// so the caller's spec is never written. The RunContext hooks (all
// optional) observe the campaign's phases and thread checkpoint
// capture/resume through it; a cancelled context aborts the run with
// ctx.Err(). rc.Shard is ignored: shard identity is part of the content
// key, so only spec.Shard shards a run, and a shard sub-spec returns a
// *ShardResult of its window's unit snapshots instead of a campaign
// result.
func Run(ctx context.Context, spec *JobSpec, rc RunContext) (any, error) {
	spec, err := spec.clone()
	if err != nil {
		return nil, err
	}
	c, err := spec.campaign()
	if err != nil {
		return nil, err
	}
	rc.Shard = nil
	if spec.Shard != nil {
		return runShard(ctx, spec.Shard, c, rc)
	}
	return c.run(ctx, rc)
}

// MarshalResult is the canonical result serialization: every path that
// produces result bytes — fresh run, cache fill, smoke-test golden — uses
// it, which is what makes "cached vs fresh" and "served vs direct library
// call" byte-identical comparisons meaningful.
func MarshalResult(v any) ([]byte, error) {
	return json.Marshal(v)
}
