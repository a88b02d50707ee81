package core

import (
	"time"

	"github.com/sinet-io/sinet/internal/channel"
	"github.com/sinet-io/sinet/internal/sim"
)

// WeatherProcess generates a persistent per-site weather sequence: the sky
// state is redrawn every period (six hours) from a two-state wet/dry
// Markov chain whose stationary wet fraction equals the site's
// RainProbability, with wet periods split between rainy and stormy.
type WeatherProcess struct {
	period time.Duration
	start  time.Time
	states []channel.Weather
}

// NewWeatherProcess precomputes the weather sequence covering [start,
// start+days). Deterministic given the RNG stream.
func NewWeatherProcess(rng *sim.RNG, site Site, start time.Time, days int) *WeatherProcess {
	const period = 6 * time.Hour
	n := days*4 + 1
	if n < 1 {
		n = 1
	}
	states := make([]channel.Weather, n)

	// Two-state Markov chain with persistence: P(stay) = 0.7. Solve the
	// wet->wet / dry->wet transition probabilities so the stationary wet
	// fraction matches the site.
	pWet := site.RainProbability
	const stay = 0.7
	// dry->wet chosen so stationary distribution is pWet given wet->wet=stay.
	// π_wet = pDW / (pDW + (1-stay)) ⇒ pDW = π_wet (1-stay) / (1-π_wet).
	pDW := 0.0
	if pWet < 1 {
		pDW = pWet * (1 - stay) / (1 - pWet)
	}
	wet := rng.Bool(pWet)
	for i := range states {
		if wet {
			// Most wet periods are rain; a fraction escalate to storm.
			if rng.Bool(0.15) {
				states[i] = channel.Stormy
			} else {
				states[i] = channel.Rainy
			}
		} else {
			if rng.Bool(0.3) {
				states[i] = channel.Cloudy
			} else {
				states[i] = channel.Sunny
			}
		}
		if wet {
			wet = rng.Bool(stay)
		} else {
			wet = rng.Bool(pDW)
		}
	}
	return &WeatherProcess{period: period, start: start, states: states}
}

// At returns the sky state at time t (clamped to the precomputed range).
func (w *WeatherProcess) At(t time.Time) channel.Weather {
	if len(w.states) == 0 {
		return channel.Sunny
	}
	idx := int(t.Sub(w.start) / w.period)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(w.states) {
		idx = len(w.states) - 1
	}
	return w.states[idx]
}

// ConstantWeather is a WeatherProvider pinning the sky to one state, used
// by controlled experiments (Fig. 3d, Fig. 5b).
type ConstantWeather struct{ State channel.Weather }

// At implements WeatherProvider.
func (c ConstantWeather) At(time.Time) channel.Weather { return c.State }

// WeatherProvider yields the sky state at a time.
type WeatherProvider interface {
	At(time.Time) channel.Weather
}
