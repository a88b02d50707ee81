// Package channel models the space-ground radio channel of Direct-to-
// Satellite IoT links: free-space path loss, elevation-dependent
// atmospheric absorption, weather (rain) attenuation, log-normal shadowing
// and Rician small-scale fading, composed into a link budget that yields
// the received power and SNR the LoRa demodulator sees.
package channel

import (
	"fmt"
	"math"
	"time"

	"github.com/sinet-io/sinet/internal/sim"
)

// FreeSpacePathLossDB returns the free-space path loss in dB for a
// distance in km and frequency in MHz: 32.45 + 20log10(d) + 20log10(f).
func FreeSpacePathLossDB(distanceKm, freqMHz float64) float64 {
	if distanceKm <= 0 || freqMHz <= 0 {
		return 0
	}
	return 32.45 + 20*math.Log10(distanceKm) + 20*math.Log10(freqMHz)
}

// AtmosphericLossDB returns gaseous/tropospheric absorption as a function
// of elevation. At UHF the zenith loss is small (~0.1-0.3 dB) but the slant
// path through the troposphere grows as 1/sin(el), and below ~5° ground
// multipath and tropospheric effects add several more dB. The model is the
// standard cosecant law clamped at low elevation.
func AtmosphericLossDB(elevationRad float64) float64 {
	const zenithLossDB = 0.2
	el := elevationRad
	if el < 2.0*math.Pi/180.0 {
		el = 2.0 * math.Pi / 180.0 // clamp the cosecant blow-up
	}
	loss := zenithLossDB / math.Sin(el)
	// Extra low-elevation degradation (multipath, foliage, horizon
	// obstructions) below 10°, up to ~4 dB at the clamp.
	const lowElKnee = 10.0 * math.Pi / 180.0
	if elevationRad < lowElKnee {
		frac := (lowElKnee - math.Max(elevationRad, 0)) / lowElKnee
		loss += 4.0 * frac * frac
	}
	return loss
}

// Weather is the sky condition over a site, driving rain attenuation and
// extra scintillation.
type Weather int

// Weather states.
const (
	Sunny Weather = iota
	Cloudy
	Rainy
	Stormy
)

// String implements fmt.Stringer.
func (w Weather) String() string {
	switch w {
	case Sunny:
		return "sunny"
	case Cloudy:
		return "cloudy"
	case Rainy:
		return "rainy"
	case Stormy:
		return "stormy"
	default:
		return fmt.Sprintf("Weather(%d)", int(w))
	}
}

// AttenuationDB returns the mean excess attenuation of the weather state at
// UHF. Rain fade at 400-450 MHz is far smaller than at Ku/Ka band but wet
// foliage, antenna wetting and increased sky noise measurably reduce the
// margin of links that are already borderline, which is exactly the regime
// the paper's DtS links occupy.
func (w Weather) AttenuationDB() float64 {
	switch w {
	case Sunny:
		return 0
	case Cloudy:
		return 0.5
	case Rainy:
		return 2.0
	case Stormy:
		return 4.0
	default:
		return 0
	}
}

// ScintillationSigmaDB returns extra fading variance under the weather
// state.
func (w Weather) ScintillationSigmaDB() float64 {
	switch w {
	case Sunny:
		return 0
	case Cloudy:
		return 0.3
	case Rainy:
		return 1.6
	case Stormy:
		return 2.6
	default:
		return 0
	}
}

// Model is a composed stochastic channel for one site. It is deterministic
// given its RNG stream.
type Model struct {
	// ShadowSigmaDB is the log-normal shadowing standard deviation. DtS
	// links with clear sky view see 1.5-3 dB.
	ShadowSigmaDB float64
	// RicianK is the linear K-factor of small-scale fading. LEO links have
	// a strong line-of-sight: K ≈ 10 (10 dB) is typical at high elevation.
	RicianK float64
	// ShadowCoherence is the AR(1) time constant of the shadowing process.
	// Shadowing on a static ground terminal is quasi-static over tens of
	// seconds — the property that makes beacon-gated transmission work
	// (§F: data goes out when the link has just proven itself good).
	// Zero disables correlation (every sample independent).
	ShadowCoherence time.Duration

	rng *sim.RNG

	// AR(1) state.
	lastAt     time.Time
	lastShadow float64
	haveState  bool

	// Memoized AR(1) coefficients for the last inter-sample gap. Beacons
	// arrive on a fixed cadence, so consecutive gaps repeat and the
	// exp/sqrt pair can be reused verbatim.
	lastDt       time.Duration
	lastRho      float64
	lastInnovStd float64
	haveRho      bool
}

// NewModel builds a channel model drawing from the given RNG stream.
func NewModel(rng *sim.RNG) *Model {
	return &Model{ShadowSigmaDB: 2.0, RicianK: 10.0, ShadowCoherence: 45 * time.Second, rng: rng}
}

// shadowAt returns the (possibly time-correlated) shadowing draw in dB.
func (m *Model) shadowAt(at time.Time, sigma float64) float64 {
	if m.ShadowCoherence <= 0 || at.IsZero() {
		return m.rng.LogNormalDB(sigma)
	}
	if !m.haveState || at.Before(m.lastAt) {
		m.lastShadow = m.rng.LogNormalDB(sigma)
		m.lastAt = at
		m.haveState = true
		return m.lastShadow
	}
	dt := at.Sub(m.lastAt)
	if !m.haveRho || dt != m.lastDt {
		m.lastRho = math.Exp(-dt.Seconds() / m.ShadowCoherence.Seconds())
		m.lastInnovStd = math.Sqrt(1 - m.lastRho*m.lastRho)
		m.lastDt = dt
		m.haveRho = true
	}
	m.lastShadow = m.lastRho*m.lastShadow + m.lastInnovStd*m.rng.LogNormalDB(sigma)
	m.lastAt = at
	return m.lastShadow
}

// Loss describes one realized link-budget computation.
type Loss struct {
	FSPLDB       float64
	AtmosphereDB float64
	WeatherDB    float64
	ShadowingDB  float64 // signed random draw
	FadingDB     float64 // signed random draw
	TotalDB      float64
}

// SampleAt realizes the loss for a packet at time at; consecutive calls
// with increasing timestamps see AR(1)-correlated shadowing.
func (m *Model) SampleAt(at time.Time, distanceKm, freqMHz, elevationRad float64, w Weather) Loss {
	l := Loss{
		FSPLDB:       FreeSpacePathLossDB(distanceKm, freqMHz),
		AtmosphereDB: AtmosphericLossDB(elevationRad),
		WeatherDB:    w.AttenuationDB(),
	}
	// Shadowing is slow (AR(1)-correlated); weather scintillation is a
	// fast, per-frame fluctuation — it cannot be predicted from a beacon
	// received a second earlier, which is why rainy days force extra
	// retransmissions even under beacon-gated access.
	l.ShadowingDB = m.shadowAt(at, m.ShadowSigmaDB)

	// Rician power gain → dB loss (negative gain is a fade). Lower
	// elevation weakens the LoS component.
	k := m.RicianK
	if elevationRad < 20*math.Pi/180 {
		frac := math.Max(elevationRad, 0) / (20 * math.Pi / 180)
		k = 1 + (m.RicianK-1)*frac
	}
	gain := m.rng.Rician(k)
	l.FadingDB = -10 * math.Log10(math.Max(gain, 1e-6))
	if scint := w.ScintillationSigmaDB(); scint > 0 {
		l.FadingDB += m.rng.LogNormalDB(scint)
	}

	l.TotalDB = l.FSPLDB + l.AtmosphereDB + l.WeatherDB + l.ShadowingDB + l.FadingDB
	return l
}

// MeanLossDB returns the deterministic portion of the loss (no random
// draws), used for theoretical link-budget tables.
func MeanLossDB(distanceKm, freqMHz, elevationRad float64, w Weather) float64 {
	return FreeSpacePathLossDB(distanceKm, freqMHz) +
		AtmosphericLossDB(elevationRad) +
		w.AttenuationDB()
}
