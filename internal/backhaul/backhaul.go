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

// DownlinkWindows returns the time windows within [start, end) during
// which the satellite can reach any station of the segment, found by
// stepping the sub-satellite point over start + k·step (one position
// query per step instead of a pass search per station). The satellite is
// in reach at a step when its haversine ground distance to some station
// is within the mask-limited horizon distance for its altitude. A window
// opens at the first in-reach step and closes at the last one; a window
// still open at the end of the sweep closes at end. A step whose position
// query fails counts as out of reach, and step <= 0 means one minute.
//
// src may be a raw propagator or a shared Ephemeris; an aligned ephemeris
// serves the whole sweep from its samples.
func (g GroundSegment) DownlinkWindows(src orbit.StateSource, start, end time.Time, step time.Duration) []orbit.Window {
	return g.DownlinkWindowsUp(src, start, end, step, nil)
}

// DownlinkWindowsUp is DownlinkWindows restricted to stations that are up:
// a station contributes reachability at instant t only when up(i, t) is
// true, so outages of the operator's teleports thin the downlink windows.
// A nil predicate treats every station as always up. up must be a pure
// function of its arguments: it is asked only about stations near the
// satellite, so how often it is called is not part of the contract.
func (g GroundSegment) DownlinkWindowsUp(src orbit.StateSource, start, end time.Time, step time.Duration, up func(station int, at time.Time) bool) []orbit.Window {
	if !end.After(start) || len(g.Stations) == 0 {
		return nil
	}
	if step <= 0 {
		step = time.Minute
	}
	dirs := make([]orbit.Vec3, len(g.Stations))
	for i, st := range g.Stations {
		dirs[i] = sphereDir(st)
	}
	var windows []orbit.Window
	var open bool
	var winStart time.Time
	prev := start
	for t := start; t.Before(end); t = t.Add(step) {
		rECEF, _, err := src.PositionECEF(t)
		in := err == nil && g.reaches(rECEF, t, dirs, up)
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

const (
	// meanEarthRadiusKm is the sphere HaversineKm measures on.
	meanEarthRadiusKm = 6371.0
	// polarRadiusKm is the WGS-84 polar radius (6356.7523 km), rounded
	// down so that |r| − polarRadiusKm never undershoots the geodetic
	// altitude of a point r.
	polarRadiusKm = 6356.752
	// coneMarginRad widens the downlink cone; reaches derives its size.
	coneMarginRad = 0.005
)

// reaches reports whether a satellite at ECEF position r (km) is in reach
// of a station that is up at t: the haversine distance from its geodetic
// sub-point to the station is at most maxGroundDistanceKm(sub.Alt).
// dirs[i] is sphereDir(g.Stations[i]).
//
// A satellite is near the segment for a small part of its orbit, so a
// cone test that needs neither Bowring's conversion nor a haversine runs
// first, and the exact test runs, in index order with early exit, only
// over the stations the cone admits. Station i is admitted when
//
//	dirs[i]·r ≥ |r|·cos(λ(|r| − b) + m),
//
// with λ = maxGroundAngle, b = polarRadiusKm and m = coneMarginRad: the
// angle between dirs[i] and r is at most λ(|r| − b) + m (both angles lie
// in [0, π], where cos falls monotonically, as λ < π/2). The cone admits
// every station the exact test accepts, so the answer is the exact
// test's, bit for bit. Let θ be the haversine angle from the sub-point to
// station i and h = sub.Alt:
//
//   - The exact test accepts only when θ ≤ λ(h), and θ is the angle
//     between dirs[i] and sphereDir(sub), because HaversineKm reads
//     geodetic latitude and longitude as spherical angles.
//   - λ(h) ≤ λ(|r| − b). λ never falls as altitude rises (for any mask
//     above −90°), and h ≤ |r| − b: r = p + h·n̂ for the point p below r
//     on the ellipsoid, with n̂ its outward normal, so |r| ≥ r·n̂ =
//     p·n̂ + h ≥ b + h, since the tangent plane at p stays outside the
//     inscribed sphere of radius b.
//   - r points along the satellite's geocentric latitude and
//     sphereDir(sub) along its geodetic latitude at the same longitude.
//     With h > 0, r points between p and n̂, so the gap is at most the
//     surface gap, whose WGS-84 maximum is 0.1924° (0.00336 rad), at 45°.
//
// So the angle between dirs[i] and r is at most θ + 0.00336 ≤
// λ(|r| − b) + 0.00336. m = 0.005 rad covers that and leaves 0.00164 rad
// of slack for rounding, which is about 1e-8 rad even where cos is flat.
//
// up is called only for admitted stations; it is pure, so skipping the
// others changes nothing.
func (g GroundSegment) reaches(r orbit.Vec3, t time.Time, dirs []orbit.Vec3, up func(station int, at time.Time) bool) bool {
	minDot := g.coneMinDot(r)
	converted := false
	var sub orbit.Geodetic
	var maxGround float64
	for i, d := range dirs {
		if d.Dot(r) < minDot || (up != nil && !up(i, t)) {
			continue
		}
		if !converted {
			sub, converted = orbit.GeodeticFromECEF(r), true
			maxGround = g.maxGroundDistanceKm(sub.Alt)
		}
		if orbit.HaversineKm(sub, g.Stations[i]) <= maxGround {
			return true
		}
	}
	return false
}

// coneMinDot returns |r|·cos(λ(|r| − b) + m), the least dirs[i]·r of a
// station the downlink cone around r admits (see reaches).
func (g GroundSegment) coneMinDot(r orbit.Vec3) float64 {
	norm := r.Norm()
	return norm * math.Cos(g.maxGroundAngle(norm-polarRadiusKm)+coneMarginRad)
}

// sphereDir is the unit vector with p's latitude and longitude read as
// spherical angles, as HaversineKm reads them.
func sphereDir(p orbit.Geodetic) orbit.Vec3 {
	cosLat := math.Cos(p.Lat)
	return orbit.Vec3{X: cosLat * math.Cos(p.Lon), Y: cosLat * math.Sin(p.Lon), Z: math.Sin(p.Lat)}
}

// maxGroundDistanceKm returns the ground-track distance at which a
// satellite at altKm sits exactly at the segment's elevation mask.
func (g GroundSegment) maxGroundDistanceKm(altKm float64) float64 {
	return meanEarthRadiusKm * g.maxGroundAngle(altKm)
}

// maxGroundAngle is maxGroundDistanceKm as an Earth-central angle (rad).
func (g GroundSegment) maxGroundAngle(altKm float64) float64 {
	if altKm <= 0 {
		return 0
	}
	eps := g.MinElevationRad
	lambda := math.Acos(meanEarthRadiusKm*math.Cos(eps)/(meanEarthRadiusKm+altKm)) - eps
	if lambda < 0 {
		return 0
	}
	return lambda
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
