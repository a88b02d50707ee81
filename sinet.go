// Package sinet is a from-scratch reproduction of the measurement
// infrastructure behind "Satellite IoT in Practice: A First Measurement
// Study on Network Availability, Performance, and Costs" (IMC '25).
//
// The library simulates the complete Direct-to-Satellite (DtS) IoT stack —
// SGP4 orbit propagation over synthetic constellations matching the
// paper's Table 3, a calibrated LoRa link budget with weather and Doppler,
// TinyGS-style ground stations with the paper's customized scheduler,
// beacon-gated MAC with ACKs and retransmissions, store-and-forward
// satellite gateways draining over a Chinese ground segment, and energy
// and cost models — and reruns the paper's passive (§3.1) and active
// (§3.2) measurement campaigns on top of it.
//
// Quick start:
//
//	res, err := sinet.RunPassive(sinet.PassiveConfig{Seed: 42, Days: 1})
//	if err != nil { ... }
//	fmt.Println(res.Shrinkage("Tianqi", "HK"))
//
// The cmd/figures binary regenerates every table and figure; the
// examples/ directory holds runnable scenario walkthroughs.
package sinet

import (
	"context"
	"io"
	"time"

	"github.com/sinet-io/sinet/internal/channel"
	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/core"
	"github.com/sinet-io/sinet/internal/cost"
	"github.com/sinet-io/sinet/internal/energy"
	"github.com/sinet-io/sinet/internal/experiments"
	"github.com/sinet-io/sinet/internal/fault"
	"github.com/sinet-io/sinet/internal/lora"
	"github.com/sinet-io/sinet/internal/mac"
	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/trace"
)

// Version is the library release tag.
const Version = "1.0.0"

// --- Orbital mechanics -------------------------------------------------

// TLE is a parsed two-line element set.
type TLE = orbit.TLE

// Elements are Brouwer mean orbital elements in SGP4 units.
type Elements = orbit.Elements

// Propagator is an initialized SGP4 propagator.
type Propagator = orbit.Propagator

// PassPredictor finds contact windows over ground sites.
type PassPredictor = orbit.PassPredictor

// Ephemeris is a precomputed satellite trajectory on a fixed time grid,
// shared by pass searches over many sites.
type Ephemeris = orbit.Ephemeris

// StateSource supplies satellite ECEF state — a Propagator or Ephemeris.
type StateSource = orbit.StateSource

// Pass is one satellite contact window.
type Pass = orbit.Pass

// Geodetic is a WGS-84 position (radians / km).
type Geodetic = orbit.Geodetic

// LookAngles is observer-to-satellite geometry.
type LookAngles = orbit.LookAngles

// ParseTLE parses a two- or three-line element set with checksum
// verification.
func ParseTLE(text string) (TLE, error) { return orbit.ParseTLE(text) }

// NewPropagator initializes SGP4 for an element set.
func NewPropagator(e Elements) (*Propagator, error) { return orbit.NewPropagator(e) }

// NewPropagatorFromTLE initializes SGP4 from a parsed TLE.
func NewPropagatorFromTLE(t TLE) (*Propagator, error) { return orbit.NewPropagatorFromTLE(t) }

// NewPassPredictor wraps a propagator for pass searching.
func NewPassPredictor(p *Propagator) *PassPredictor { return orbit.NewPassPredictor(p) }

// NewEphemeris samples p's trajectory on the grid start + k·step covering
// [start, end]; build it once per satellite and share it across sites and
// goroutines.
func NewEphemeris(p *Propagator, start, end time.Time, step time.Duration) *Ephemeris {
	return orbit.NewEphemeris(p, start, end, step)
}

// NewEphemerisPredictor wraps a shared ephemeris for pass searching on its
// sampling grid.
func NewEphemerisPredictor(e *Ephemeris) *PassPredictor {
	return orbit.NewEphemerisPredictor(e)
}

// LatLon builds a Geodetic from degrees and altitude km.
func LatLon(latDeg, lonDeg, altKm float64) Geodetic {
	return orbit.NewGeodeticDeg(latDeg, lonDeg, altKm)
}

// --- Constellations ----------------------------------------------------

// Constellation is one operator's fleet plus DtS beacon configuration.
type Constellation = constellation.Constellation

// Tianqi returns the paper's 22-satellite Tianqi fleet.
func Tianqi(epoch time.Time) Constellation { return constellation.Tianqi(epoch) }

// TianqiSubset returns the first n Tianqi satellites (Fig. 3a growth).
func TianqiSubset(epoch time.Time, n int) Constellation {
	return constellation.TianqiSubset(epoch, n)
}

// FOSSA returns the 3-satellite FOSSA fleet.
func FOSSA(epoch time.Time) Constellation { return constellation.FOSSA(epoch) }

// PICO returns the 9-satellite PICO fleet.
func PICO(epoch time.Time) Constellation { return constellation.PICO(epoch) }

// CSTP returns the 5-satellite CSTP fleet.
func CSTP(epoch time.Time) Constellation { return constellation.CSTP(epoch) }

// AllConstellations returns the four measured fleets in paper order.
func AllConstellations(epoch time.Time) []Constellation { return constellation.All(epoch) }

// Mega synthesizes a Starlink-class Walker fleet of n satellites for
// beyond-the-paper scale studies (see constellation.Mega).
func Mega(epoch time.Time, n int) Constellation { return constellation.Mega(epoch, n) }

// FootprintKm2 returns a satellite's coverage-cap area for an altitude and
// minimum elevation.
func FootprintKm2(altKm, minElevationRad float64) float64 {
	return constellation.FootprintKm2(altKm, minElevationRad)
}

// --- Campaigns (the paper's measurements) -------------------------------

// PassiveConfig configures a §3.1 passive campaign.
type PassiveConfig = core.PassiveConfig

// PassiveResult is a completed passive campaign with analysis methods.
type PassiveResult = core.PassiveResult

// ContactStat is one contact window's theoretical/effective comparison.
type ContactStat = core.ContactStat

// ActiveConfig configures a §3.2 active campaign.
type ActiveConfig = core.ActiveConfig

// ActiveResult is a completed active campaign with analysis methods.
type ActiveResult = core.ActiveResult

// PacketOutcome traces one sensor reading end-to-end.
type PacketOutcome = core.PacketOutcome

// TerrestrialConfig configures the terrestrial LoRaWAN baseline.
type TerrestrialConfig = core.TerrestrialConfig

// TerrestrialResult is a completed baseline campaign.
type TerrestrialResult = core.TerrestrialResult

// Site is one Table 1 measurement city.
type Site = core.Site

// EnergyComparison is the Fig. 6 satellite-vs-terrestrial energy result.
type EnergyComparison = core.EnergyComparison

// StationAvailability is one station's availability-under-churn summary.
type StationAvailability = core.StationAvailability

// ProgressFunc observes campaign phase progress. Assign it to a campaign
// config's Progress field (cfg.Progress = f, promoted from the config's
// embedded run context); it is called with strictly increasing completed
// counts per phase and never concurrently.
type ProgressFunc = core.ProgressFunc

// ErrInvalidConfig is the sentinel every campaign config validation error
// wraps; match with errors.Is.
var ErrInvalidConfig = core.ErrInvalidConfig

// RunPassive executes a passive measurement campaign.
func RunPassive(cfg PassiveConfig) (*PassiveResult, error) { return core.RunPassive(cfg) }

// RunPassiveCtx is RunPassive with cooperative cancellation: a cancelled
// context aborts the campaign within about one coarse step and returns
// ctx.Err().
func RunPassiveCtx(ctx context.Context, cfg PassiveConfig) (*PassiveResult, error) {
	return core.RunPassiveCtx(ctx, cfg)
}

// RunActive executes an active (Tianqi-node) campaign.
func RunActive(cfg ActiveConfig) (*ActiveResult, error) { return core.RunActive(cfg) }

// RunActiveCtx is RunActive with cooperative cancellation.
func RunActiveCtx(ctx context.Context, cfg ActiveConfig) (*ActiveResult, error) {
	return core.RunActiveCtx(ctx, cfg)
}

// RunTerrestrial executes the terrestrial baseline campaign.
func RunTerrestrial(cfg TerrestrialConfig) (*TerrestrialResult, error) {
	return core.RunTerrestrial(cfg)
}

// RoutingConfig configures a store-and-forward-vs-ISL-relay routing
// campaign over the time-varying network graph.
type RoutingConfig = core.RoutingConfig

// RoutingResult is a completed routing campaign.
type RoutingResult = core.RoutingResult

// RoutedPacket is one packet's delivery record under both policies.
type RoutedPacket = core.RoutedPacket

// Routing delivery policies.
const (
	PolicyStore   = core.PolicyStore
	PolicyRelay   = core.PolicyRelay
	PolicyCompare = core.PolicyCompare
)

// RunRouting executes a routing campaign.
func RunRouting(cfg RoutingConfig) (*RoutingResult, error) { return core.RunRouting(cfg) }

// RunRoutingCtx is RunRouting with cooperative cancellation.
func RunRoutingCtx(ctx context.Context, cfg RoutingConfig) (*RoutingResult, error) {
	return core.RunRoutingCtx(ctx, cfg)
}

// --- Fault injection ------------------------------------------------------

// FaultConfig parameterizes deterministic infrastructure disruption:
// ground-station Gilbert churn (MTBF/MTTR), scheduled maintenance windows,
// drain-station outages and per-satellite beacon blackouts. Attach one to
// PassiveConfig.Faults or ActiveConfig.Faults; the zero value (or a nil
// field) injects nothing and reproduces fault-free results byte-identically.
type FaultConfig = fault.Config

// FaultSchedule is one component's queryable outage timeline.
type FaultSchedule = fault.Schedule

// LoRaParams are the physical-layer modulation parameters; set
// PassiveConfig.Radio / ActiveConfig.Radio to override the DtS defaults
// (validated up front against illegal SF/BW combinations).
type LoRaParams = lora.Params

// DefaultDtSParams returns the DtS downlink/uplink modulation defaults.
func DefaultDtSParams() LoRaParams { return lora.DefaultDtSParams() }

// RevisitStats is a constellation's theoretical coverage/revisit profile
// at one latitude.
type RevisitStats = core.RevisitStats

// RevisitAnalysis sweeps latitudes and reports the constellation's
// theoretical coverage and revisit gaps — the "anytime, anywhere" bound
// of §3.1.
func RevisitAnalysis(cons Constellation, latitudesDeg []float64, start time.Time, days int) ([]RevisitStats, error) {
	return core.RevisitAnalysis(cons, latitudesDeg, start, days)
}

// CompareEnergy derives the Fig. 6 energy comparison from two campaigns.
func CompareEnergy(sat *ActiveResult, terr *TerrestrialResult, battery Battery) EnergyComparison {
	return core.CompareEnergy(sat, terr, battery)
}

// PaperSites returns the eight Table 1 deployments.
func PaperSites() []Site { return core.PaperSites() }

// SiteByCode looks up a Table 1 site by its code (e.g. "HK").
func SiteByCode(code string) (Site, bool) { return core.SiteByCode(code) }

// YunnanPlantation is the active campaign's deployment location.
func YunnanPlantation() Geodetic { return core.YunnanPlantation() }

// --- Protocol and device knobs ------------------------------------------

// RetxPolicy is the DtS retransmission policy.
type RetxPolicy = mac.RetxPolicy

// DefaultRetxPolicy allows the paper's five retransmissions.
func DefaultRetxPolicy() RetxPolicy { return mac.DefaultRetxPolicy() }

// NoRetxPolicy disables retransmissions (the paper's default-off mode).
func NoRetxPolicy() RetxPolicy { return mac.NoRetxPolicy() }

// Weather is a sky state for controlled experiments.
type Weather = channel.Weather

// Weather states.
const (
	Sunny  = channel.Sunny
	Cloudy = channel.Cloudy
	Rainy  = channel.Rainy
	Stormy = channel.Stormy
)

// ConstantWeather pins the sky state for a whole campaign.
type ConstantWeather = core.ConstantWeather

// Antenna is a ground antenna profile.
type Antenna = channel.Antenna

// Antenna profiles from the paper's Fig. 5b comparison.
var (
	QuarterWave     = channel.QuarterWave
	FiveEighthsWave = channel.FiveEighthsWave
)

// Battery is a battery pack for lifetime projection.
type Battery = energy.Battery

// DefaultBattery is the paper's 5,000 mAh-class pack.
func DefaultBattery() Battery { return energy.DefaultBattery() }

// --- Cost model ----------------------------------------------------------

// Deployment is a bill of materials plus traffic for cost accounting.
type Deployment = cost.Deployment

// USD is a monetary amount.
type USD = cost.USD

// PaperAgricultureSatellite is the paper's Tianqi deployment cost model.
func PaperAgricultureSatellite() Deployment { return cost.PaperAgricultureSatellite() }

// PaperAgricultureTerrestrial is the paper's terrestrial deployment.
func PaperAgricultureTerrestrial() Deployment { return cost.PaperAgricultureTerrestrial() }

// --- Dataset -------------------------------------------------------------

// Dataset is a packet-trace collection with CSV/JSON codecs.
type Dataset = trace.Dataset

// TraceRecord is one received-packet trace entry.
type TraceRecord = trace.Record

// ReadTracesCSV parses a dataset written by Dataset.WriteCSV.
func ReadTracesCSV(r io.Reader) (*Dataset, error) { return trace.ReadCSV(r) }

// ReadTracesJSON parses a dataset written by Dataset.WriteJSON.
func ReadTracesJSON(r io.Reader) (*Dataset, error) { return trace.ReadJSON(r) }

// --- Experiment harness ----------------------------------------------------

// ExperimentScale sizes a full reproduction run.
type ExperimentScale = experiments.Scale

// ExperimentRunner reproduces the paper's tables and figures.
type ExperimentRunner = experiments.Runner

// QuickScale is a seconds-scale run for CI and demos.
func QuickScale() ExperimentScale { return experiments.QuickScale() }

// StandardScale is the default cmd/figures configuration.
func StandardScale() ExperimentScale { return experiments.StandardScale() }

// PaperScale approaches the published campaign spans.
func PaperScale() ExperimentScale { return experiments.PaperScale() }

// NewExperimentRunner builds a runner writing rendered experiment output
// to out (nil discards).
func NewExperimentRunner(scale ExperimentScale, out io.Writer) *ExperimentRunner {
	return experiments.New(scale, out)
}
