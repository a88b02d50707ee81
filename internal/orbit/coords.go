package orbit

import (
	"fmt"
	"math"
	"time"
)

// WGS-84 ellipsoid constants used for geodetic conversions. SGP4 itself runs
// on WGS-72 gravity constants (see sgp4.go), matching the reference
// implementation; the small mismatch is standard practice.
const (
	// EarthRadiusKm is the WGS-84 equatorial radius.
	EarthRadiusKm = 6378.137
	// earthFlattening is the WGS-84 flattening factor.
	earthFlattening = 1.0 / 298.257223563
	// earthEcc2 is the square of the first eccentricity of the ellipsoid.
	earthEcc2 = earthFlattening * (2 - earthFlattening)
	// EarthRotationRate is the Earth rotation rate in rad/s (IAU-82).
	EarthRotationRate = 7.292115e-5
)

// Vec3 is a three-dimensional Cartesian vector.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.3f, %.3f, %.3f)", v.X, v.Y, v.Z)
}

// Geodetic is a WGS-84 geodetic position. Latitude and longitude are in
// radians, altitude in km above the ellipsoid.
type Geodetic struct {
	Lat float64 // geodetic latitude, rad, positive north
	Lon float64 // longitude, rad, positive east, in (-π, π]
	Alt float64 // height above the ellipsoid, km
}

// NewGeodeticDeg builds a Geodetic from degrees and km, the human-friendly
// form used by site catalogs.
func NewGeodeticDeg(latDeg, lonDeg, altKm float64) Geodetic {
	return Geodetic{Lat: latDeg * deg2Rad, Lon: wrapPi(lonDeg * deg2Rad), Alt: altKm}
}

// LatDeg returns the latitude in degrees.
func (g Geodetic) LatDeg() float64 { return g.Lat * rad2Deg }

// LonDeg returns the longitude in degrees.
func (g Geodetic) LonDeg() float64 { return g.Lon * rad2Deg }

// String implements fmt.Stringer.
func (g Geodetic) String() string {
	return fmt.Sprintf("lat=%.4f° lon=%.4f° alt=%.3fkm", g.LatDeg(), g.LonDeg(), g.Alt)
}

// ECEF converts the geodetic position to Earth-centred Earth-fixed
// Cartesian coordinates (km).
func (g Geodetic) ECEF() Vec3 {
	sinLat := math.Sin(g.Lat)
	cosLat := math.Cos(g.Lat)
	// Radius of curvature in the prime vertical.
	n := EarthRadiusKm / math.Sqrt(1-earthEcc2*sinLat*sinLat)
	return Vec3{
		X: (n + g.Alt) * cosLat * math.Cos(g.Lon),
		Y: (n + g.Alt) * cosLat * math.Sin(g.Lon),
		Z: (n*(1-earthEcc2) + g.Alt) * sinLat,
	}
}

// GeodeticFromECEF converts an ECEF position (km) to geodetic coordinates
// using Bowring's iterative method, which converges in a handful of
// iterations to sub-millimetre precision for any LEO-relevant input.
func GeodeticFromECEF(r Vec3) Geodetic {
	lon := math.Atan2(r.Y, r.X)
	p := math.Hypot(r.X, r.Y)
	// Degenerate polar case.
	if p < 1e-9 {
		lat := math.Pi / 2
		if r.Z < 0 {
			lat = -lat
		}
		b := EarthRadiusKm * (1 - earthFlattening)
		return Geodetic{Lat: lat, Lon: lon, Alt: math.Abs(r.Z) - b}
	}
	lat := math.Atan2(r.Z, p*(1-earthEcc2))
	var n float64
	for i := 0; i < 8; i++ {
		sinLat := math.Sin(lat)
		n = EarthRadiusKm / math.Sqrt(1-earthEcc2*sinLat*sinLat)
		newLat := math.Atan2(r.Z+n*earthEcc2*sinLat, p)
		if math.Abs(newLat-lat) < 1e-12 {
			lat = newLat
			break
		}
		lat = newLat
	}
	alt := p/math.Cos(lat) - n
	return Geodetic{Lat: lat, Lon: wrapPi(lon), Alt: alt}
}

// TEMEToECEFVel rotates a TEME velocity into ECEF, accounting for the frame
// rotation (v_ecef = R·v_teme − ω×r_ecef).
func TEMEToECEFVel(rTEME, vTEME Vec3, t time.Time) (rECEF, vECEF Vec3) {
	return TEMEToECEFVelGMST(rTEME, vTEME, GMSTAt(t))
}

// TEMEToECEFVelGMST is TEMEToECEFVel with the sidereal angle supplied by
// the caller. Batch ephemeris construction computes the angle once per
// time step and shares it across every satellite of a constellation; the
// arithmetic is identical to TEMEToECEFVel, so the results are
// bit-identical for the same angle.
func TEMEToECEFVelGMST(rTEME, vTEME Vec3, theta float64) (rECEF, vECEF Vec3) {
	rECEF = rotZ(rTEME, theta)
	vRot := rotZ(vTEME, theta)
	omega := Vec3{0, 0, EarthRotationRate}
	vECEF = vRot.Sub(omega.Cross(rECEF))
	return rECEF, vECEF
}

// rotZ rotates v about the +Z axis by -theta (frame rotation by +theta).
func rotZ(v Vec3, theta float64) Vec3 {
	s, c := math.Sincos(theta)
	return Vec3{
		X: c*v.X + s*v.Y,
		Y: -s*v.X + c*v.Y,
		Z: v.Z,
	}
}

// LookAngles describes the geometry between an observer and a satellite.
type LookAngles struct {
	Azimuth   float64 // rad, clockwise from true north
	Elevation float64 // rad above the local horizon
	RangeKm   float64 // slant range, km
	RangeRate float64 // km/s, positive receding (drives Doppler)
}

// AzimuthDeg returns the azimuth in degrees.
func (l LookAngles) AzimuthDeg() float64 { return l.Azimuth * rad2Deg }

// ElevationDeg returns the elevation in degrees.
func (l LookAngles) ElevationDeg() float64 { return l.Elevation * rad2Deg }

// Look computes look angles from an observer to a satellite whose position
// and velocity are given in ECEF km / km/s.
func Look(observer Geodetic, rSatECEF, vSatECEF Vec3) LookAngles {
	return NewObserver(observer).Look(rSatECEF, vSatECEF)
}

// Observer holds the site-dependent terms of Look — the observer's ECEF
// position and the SEZ rotation sines/cosines — so a caller querying one
// site many times builds them once. Observer.Look produces bit-identical
// results to Look because the per-query arithmetic is unchanged. An
// Observer is immutable and safe for concurrent use.
type Observer struct {
	rObs                           Vec3
	sinLat, cosLat, sinLon, cosLon float64
}

// NewObserver builds the look frame of a ground site.
func NewObserver(site Geodetic) Observer {
	return Observer{
		rObs:   site.ECEF(),
		sinLat: math.Sin(site.Lat),
		cosLat: math.Cos(site.Lat),
		sinLon: math.Sin(site.Lon),
		cosLon: math.Cos(site.Lon),
	}
}

// Look computes look angles from the observer to a satellite whose
// position and velocity are given in ECEF km / km/s.
func (f Observer) Look(rSatECEF, vSatECEF Vec3) LookAngles {
	rho := rSatECEF.Sub(f.rObs)

	sinLat, cosLat := f.sinLat, f.cosLat
	sinLon, cosLon := f.sinLon, f.cosLon

	// Rotate the range vector into the local SEZ (south-east-zenith) frame.
	south := sinLat*cosLon*rho.X + sinLat*sinLon*rho.Y - cosLat*rho.Z
	east := -sinLon*rho.X + cosLon*rho.Y
	zenith := cosLat*cosLon*rho.X + cosLat*sinLon*rho.Y + sinLat*rho.Z

	rangeKm := rho.Norm()
	el := math.Asin(zenith / rangeKm)
	az := math.Atan2(east, -south)
	if az < 0 {
		az += twoPi
	}

	// Range rate is the projection of the relative velocity on the line of
	// sight. The observer is fixed in ECEF so its velocity is zero there.
	rate := rho.Dot(vSatECEF) / rangeKm
	return LookAngles{Azimuth: az, Elevation: el, RangeKm: rangeKm, RangeRate: rate}
}

// aboveMask reports whether a satellite at ECEF position rSat sits at or
// above the elevation mask whose sine (and squared sine) the caller
// precomputed. Elevation and mask both lie in [-π/2, π/2] where sine is
// monotone, so el ≥ minEl ⟺ zenith ≥ sin(minEl)·range — a comparison that
// needs only dot products, no sqrt/asin/atan2. This is the pass scan's
// per-step predicate: it visits every (site × satellite × step) and
// dominates mega-constellation searches, so the trigonometry is reserved
// for the handful of instants that build actual passes.
func (f Observer) aboveMask(rSat Vec3, sinMinEl, sin2MinEl float64) bool {
	rx := rSat.X - f.rObs.X
	ry := rSat.Y - f.rObs.Y
	rz := rSat.Z - f.rObs.Z
	zenith := f.cosLat*f.cosLon*rx + f.cosLat*f.sinLon*ry + f.sinLat*rz
	range2 := rx*rx + ry*ry + rz*rz
	if sinMinEl >= 0 {
		return zenith >= 0 && zenith*zenith >= sin2MinEl*range2
	}
	return zenith >= 0 || zenith*zenith <= sin2MinEl*range2
}

// elRange returns the elevation and slant range only — the two quantities
// the TCA sweep of a pass needs per sample. The arithmetic is the el/range
// subset of Look in the same order, so results are bit-identical to the
// full computation while skipping the azimuth atan2 and the range-rate
// projection (and, upstream, the velocity interpolation).
func (f Observer) elRange(rSat Vec3) (el, rangeKm float64) {
	rho := rSat.Sub(f.rObs)
	zenith := f.cosLat*f.cosLon*rho.X + f.cosLat*f.sinLon*rho.Y + f.sinLat*rho.Z
	rangeKm = rho.Norm()
	el = math.Asin(zenith / rangeKm)
	return el, rangeKm
}

// SegmentDistance returns the distance (km) from Earth's centre, the
// origin, to the segment a–b.
func SegmentDistance(a, b Vec3) float64 {
	d := b.Sub(a)
	dd := d.Dot(d)
	if dd == 0 {
		return a.Norm()
	}
	t := -a.Dot(d) / dd
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return a.Add(d.Scale(t)).Norm()
}

// GroundMask is a precomputed elevation-mask visibility test for one ground
// site: the observer frame plus the mask sine, ready for the trig-free
// aboveMask predicate. It exists for callers outside this package (the
// network-graph snapshot builder) that evaluate the same site against many
// satellites per time step and cannot afford per-query trigonometry. A
// GroundMask is immutable and safe for concurrent use.
type GroundMask struct {
	frame               Observer
	sinMinEl, sin2MinEl float64
}

// NewGroundMask builds the visibility test for a site with the given
// elevation mask (radians above the local horizon).
func NewGroundMask(site Geodetic, minElevationRad float64) GroundMask {
	s := math.Sin(minElevationRad)
	return GroundMask{frame: NewObserver(site), sinMinEl: s, sin2MinEl: s * s}
}

// Above reports whether a satellite at ECEF position rSat sits at or above
// the mask. Same arithmetic as the pass scan's predicate, so the two agree
// bit for bit.
func (m GroundMask) Above(rSat Vec3) bool {
	return m.frame.aboveMask(rSat, m.sinMinEl, m.sin2MinEl)
}

// SiteECEF returns the observer's ECEF position (km).
func (m GroundMask) SiteECEF() Vec3 { return m.frame.rObs }

// HaversineKm returns the great-circle distance between two geodetic points
// on a spherical Earth of mean radius. Used by footprint and coverage
// calculations where ellipsoidal precision is unnecessary.
func HaversineKm(a, b Geodetic) float64 {
	const meanRadius = 6371.0
	dLat := b.Lat - a.Lat
	dLon := b.Lon - a.Lon
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(a.Lat)*math.Cos(b.Lat)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * meanRadius * math.Asin(math.Min(1, math.Sqrt(s)))
}
