// Package orbit implements the orbital-mechanics substrate of SINet: TLE
// parsing and generation, the SGP4 analytical propagator (near-earth model
// from Spacetrack Report #3 as revised by Vallado et al. 2006), coordinate
// transforms between TEME, ECEF and geodetic frames, observer look angles,
// and satellite pass prediction for ground stations.
//
// All distances are kilometres, velocities km/s, and angles radians unless
// a name says otherwise.
package orbit

import (
	"math"
	"time"
)

const (
	// twoPi is used pervasively for angle normalization.
	twoPi = 2 * math.Pi

	// deg2Rad converts degrees to radians.
	deg2Rad = math.Pi / 180

	// rad2Deg converts radians to degrees.
	rad2Deg = 180 / math.Pi

	// minutesPerDay is the number of minutes in a solar day.
	minutesPerDay = 1440.0

	// j2000 is the Julian date of the J2000.0 epoch.
	j2000 = 2451545.0

	// julianCentury is the number of days in a Julian century.
	julianCentury = 36525.0
)

// JulianDate returns the Julian date of t (UTC). The conversion follows the
// standard algorithm of Vallado, valid for years 1900-2100, which covers
// every epoch a TLE can express.
func JulianDate(t time.Time) float64 {
	t = t.UTC()
	year := t.Year()
	month := int(t.Month())
	day := t.Day()
	hour := t.Hour()
	minute := t.Minute()
	sec := float64(t.Second()) + float64(t.Nanosecond())/1e9

	jd := 367.0*float64(year) -
		math.Floor(7.0*(float64(year)+math.Floor(float64(month+9)/12.0))*0.25) +
		math.Floor(275.0*float64(month)/9.0) +
		float64(day) + 1721013.5
	frac := (sec/60.0+float64(minute))/60.0 + float64(hour)
	return jd + frac/24.0
}

// GMST returns the Greenwich mean sidereal time in radians in [0, 2π) for
// the given Julian date (UT1 ≈ UTC is assumed, an error far below link-budget
// relevance). IAU-82 model.
func GMST(jd float64) float64 {
	tut1 := (jd - j2000) / julianCentury
	sec := 67310.54841 +
		(876600.0*3600.0+8640184.812866)*tut1 +
		0.093104*tut1*tut1 -
		6.2e-6*tut1*tut1*tut1
	// Convert seconds of time to radians (360°/86400s) and normalize.
	theta := math.Mod(sec*deg2Rad/240.0, twoPi)
	if theta < 0 {
		theta += twoPi
	}
	return theta
}

// GMSTAt is a convenience wrapper returning GMST for a wall-clock time.
func GMSTAt(t time.Time) float64 {
	return GMST(JulianDate(t))
}

// wrapTwoPi normalizes an angle to [0, 2π).
func wrapTwoPi(x float64) float64 {
	x = math.Mod(x, twoPi)
	if x < 0 {
		x += twoPi
	}
	return x
}

// wrapPi normalizes an angle to (-π, π].
func wrapPi(x float64) float64 {
	x = wrapTwoPi(x)
	if x > math.Pi {
		x -= twoPi
	}
	return x
}

// epochToTime converts a TLE epoch (two-digit year and fractional day of
// year) to UTC time. Per convention, years 57-99 map to 1957-1999 and 00-56
// map to 2000-2056.
func epochToTime(yy int, doy float64) time.Time {
	year := yy
	if year < 57 {
		year += 2000
	} else {
		year += 1900
	}
	base := time.Date(year, time.January, 1, 0, 0, 0, 0, time.UTC)
	// Day-of-year is 1-based.
	return base.Add(time.Duration((doy - 1.0) * 24 * float64(time.Hour)))
}

// timeToEpoch converts a UTC time to the TLE (two-digit year, fractional
// day-of-year) representation.
func timeToEpoch(t time.Time) (yy int, doy float64) {
	t = t.UTC()
	year := t.Year()
	base := time.Date(year, time.January, 1, 0, 0, 0, 0, time.UTC)
	doy = 1.0 + t.Sub(base).Hours()/24.0
	return year % 100, doy
}
