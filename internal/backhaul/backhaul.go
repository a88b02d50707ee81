// Package backhaul models the delivery segments behind the radio links:
// the operator's ground segment (Tianqi's 12 ground stations in China)
// that drains satellite store-and-forward buffers, the data-center
// forwarding hop to subscriber servers, and the LTE backhaul of the
// terrestrial baseline.
package backhaul

import (
	"math"
	"time"

	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/sim"
)

// GroundSegment is an operator's set of downlink ground stations.
type GroundSegment struct {
	Name     string
	Stations []orbit.Geodetic
	// MinElevationRad is the downlink dish mask (large dishes track well
	// above the horizon; 5° is typical).
	MinElevationRad float64
	// DrainDuration is how long a satellite needs over a station to flush
	// its buffer (session setup + downlink).
	DrainDuration time.Duration
}

// TianqiGroundSegment returns the 12-station Chinese ground segment (§2.3).
// Exact coordinates are not published; the stations are placed across
// China's typical teleport locations, which preserves the delivery-delay
// statistics (what matters is that downlink opportunities exist only over
// Chinese territory every fraction of an orbit).
func TianqiGroundSegment() GroundSegment {
	return GroundSegment{
		Name:            "Tianqi ground segment",
		MinElevationRad: 5 * 3.14159265358979 / 180,
		DrainDuration:   30 * time.Second,
		Stations: []orbit.Geodetic{
			orbit.NewGeodeticDeg(40.07, 116.60, 0.05), // Beijing
			orbit.NewGeodeticDeg(31.10, 121.20, 0.01), // Shanghai
			orbit.NewGeodeticDeg(23.16, 113.23, 0.02), // Guangzhou
			orbit.NewGeodeticDeg(30.67, 104.06, 0.5),  // Chengdu
			orbit.NewGeodeticDeg(43.83, 87.62, 0.9),   // Urumqi
			orbit.NewGeodeticDeg(38.49, 106.23, 1.1),  // Yinchuan
			orbit.NewGeodeticDeg(45.75, 126.65, 0.15), // Harbin
			orbit.NewGeodeticDeg(29.66, 91.13, 3.65),  // Lhasa
			orbit.NewGeodeticDeg(20.02, 110.35, 0.02), // Haikou
			orbit.NewGeodeticDeg(34.34, 108.94, 0.4),  // Xi'an
			orbit.NewGeodeticDeg(25.04, 102.72, 1.9),  // Kunming
			orbit.NewGeodeticDeg(36.06, 103.83, 1.5),  // Lanzhou
		},
	}
}

// NextDownlink returns the first time at or after `after` when the
// satellite rises above the segment's mask over any station, searching up
// to `horizon`. ok=false when no opportunity exists in the horizon. The
// per-station pass searches are independent, so they fan out across
// workers (each on its own propagator clone) and merge by scanning the
// station-indexed slots in order, which keeps the result deterministic.
// A worker failure (a panic in the propagator surfaces as an attributed
// error) is reported instead of crashing the fan-out.
func (g GroundSegment) NextDownlink(prop *orbit.Propagator, after, horizon time.Time) (time.Time, bool, error) {
	return g.NextDownlinkUp(prop, after, horizon, nil)
}

// NextDownlinkUp is NextDownlink restricted to stations that are up: a
// pass over station i counts only when up(i, AOS) is true at acquisition.
// A nil predicate treats every station as always up. This is how fault
// injection makes a downed drain station invisible to the operator's
// booking search.
func (g GroundSegment) NextDownlinkUp(prop *orbit.Propagator, after, horizon time.Time, up func(station int, at time.Time) bool) (time.Time, bool, error) {
	firsts := make([]time.Time, len(g.Stations))
	if err := sim.ForEach(len(g.Stations), func(i int) error {
		pp := orbit.NewPassPredictor(prop.Clone())
		for _, pass := range pp.Passes(g.Stations[i], after, horizon, g.MinElevationRad) {
			if up != nil && !up(i, pass.AOS) {
				continue
			}
			firsts[i] = pass.AOS
			break
		}
		return nil
	}, nil); err != nil {
		return time.Time{}, false, err
	}
	best := time.Time{}
	found := false
	for _, t := range firsts {
		if t.IsZero() {
			continue
		}
		if !found || t.Before(best) {
			best = t
			found = true
		}
	}
	return best, found, nil
}

// DownlinkWindows returns the merged time windows within [start, end)
// during which the satellite can reach any station of the segment, using
// sub-satellite-point stepping (much cheaper than per-station pass
// prediction: one propagation per step instead of one per station). A
// window is a span where the ground distance to the nearest station is
// below the mask-limited horizon distance for the satellite's altitude.
//
// src may be a raw propagator or a shared Ephemeris; the stepping visits
// only instants of the form start + k·step, so an aligned ephemeris serves
// the whole sweep from its samples.
func (g GroundSegment) DownlinkWindows(src orbit.StateSource, start, end time.Time, step time.Duration) []orbit.Window {
	return g.DownlinkWindowsUp(src, start, end, step, nil)
}

// DownlinkWindowsUp is DownlinkWindows restricted to stations that are up:
// a station contributes reachability at instant t only when up(i, t) is
// true, so outages of the operator's teleports thin the downlink windows.
// A nil predicate treats every station as always up.
func (g GroundSegment) DownlinkWindowsUp(src orbit.StateSource, start, end time.Time, step time.Duration, up func(station int, at time.Time) bool) []orbit.Window {
	if !end.After(start) || len(g.Stations) == 0 {
		return nil
	}
	if step <= 0 {
		step = time.Minute
	}
	var windows []orbit.Window
	var open bool
	var winStart time.Time
	prev := start
	for t := start; t.Before(end); t = t.Add(step) {
		rECEF, _, err := src.PositionECEF(t)
		in := false
		if err == nil {
			sub := orbit.GeodeticFromECEF(rECEF)
			maxGround := g.maxGroundDistanceKm(sub.Alt)
			for i, st := range g.Stations {
				if up != nil && !up(i, t) {
					continue
				}
				if orbit.HaversineKm(sub, st) <= maxGround {
					in = true
					break
				}
			}
		}
		switch {
		case in && !open:
			open = true
			winStart = t
		case !in && open:
			open = false
			windows = append(windows, orbit.Window{Start: winStart, End: prev})
		}
		prev = t
	}
	if open {
		windows = append(windows, orbit.Window{Start: winStart, End: end})
	}
	return windows
}

// maxGroundDistanceKm returns the ground-track distance at which a
// satellite at altKm sits exactly at the segment's elevation mask.
func (g GroundSegment) maxGroundDistanceKm(altKm float64) float64 {
	const r = 6371.0
	if altKm <= 0 {
		return 0
	}
	eps := g.MinElevationRad
	lambda := math.Acos(r*math.Cos(eps)/(r+altKm)) - eps
	if lambda < 0 {
		return 0
	}
	return r * lambda
}

// ScheduleDrains selects the actual drain sessions from the available
// windows: a session is booked at the END of a contact window (the
// satellite dumps its store as it finishes the overflight), and operators
// space bookings at least minGap apart. Returns the drain times.
func ScheduleDrains(windows []orbit.Window, minGap time.Duration) []time.Time {
	var out []time.Time
	var last time.Time
	for _, w := range windows {
		at := w.End
		if !last.IsZero() && at.Before(last.Add(minGap)) {
			continue
		}
		out = append(out, at)
		last = at
	}
	return out
}

// DeliveryModel turns a downlink contact into subscriber arrival times.
type DeliveryModel struct {
	// ProcessingMean is the operator data-center ingestion/processing
	// latency before forwarding to subscribers. Commercial satellite IoT
	// backends batch; the paper measures ~minutes-scale delivery tails
	// beyond pure orbital waiting.
	ProcessingMean time.Duration
	// InternetLatency is the final hop to the subscriber server.
	InternetLatency time.Duration

	rng *sim.RNG
}

// NewDeliveryModel builds a model with the operator defaults.
func NewDeliveryModel(rng *sim.RNG) *DeliveryModel {
	return &DeliveryModel{
		ProcessingMean:  4 * time.Minute,
		InternetLatency: 200 * time.Millisecond,
		rng:             rng,
	}
}

// DeliverAt returns the subscriber arrival time for a packet drained at
// downlinkAt: drain + exponential processing + internet hop.
func (m *DeliveryModel) DeliverAt(downlinkAt time.Time) time.Time {
	proc := time.Duration(m.rng.Exponential(float64(m.ProcessingMean)))
	return downlinkAt.Add(proc).Add(m.InternetLatency)
}

// LTEBackhaul models the terrestrial gateway's LTE uplink to the Internet
// plus the LoRaWAN network/application-server processing behind it.
type LTEBackhaul struct {
	// BaseLatency is the typical LTE round-trip contribution.
	BaseLatency time.Duration
	// JitterSigma spreads individual deliveries.
	JitterSigma time.Duration
	// ServerProcessing is the mean network/application-server ingestion
	// delay (deduplication window, MQTT fan-out, application polling) —
	// what makes the paper's measured terrestrial latency "0.2 minutes"
	// rather than the bare millisecond-scale radio+LTE path.
	ServerProcessing time.Duration

	rng *sim.RNG
}

// NewLTEBackhaul builds the terrestrial backhaul model.
func NewLTEBackhaul(rng *sim.RNG) *LTEBackhaul {
	return &LTEBackhaul{
		BaseLatency:      120 * time.Millisecond,
		JitterSigma:      40 * time.Millisecond,
		ServerProcessing: 8 * time.Second,
		rng:              rng,
	}
}

// DeliverAt returns the server arrival time for a packet the gateway
// received at rxAt.
func (b *LTEBackhaul) DeliverAt(rxAt time.Time) time.Time {
	jitter := time.Duration(b.rng.Normal(0, float64(b.JitterSigma)))
	lat := b.BaseLatency + jitter
	if lat < time.Millisecond {
		lat = time.Millisecond
	}
	lat += time.Duration(b.rng.Exponential(float64(b.ServerProcessing)))
	return rxAt.Add(lat)
}
