package orbit

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if got := a.Add(b); got != (Vec3{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec3{-3, -3, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Cross(b); got != (Vec3{-3, 6, -3}) {
		t.Errorf("Cross = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := (Vec3{3, 4, 0}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
}

func TestCrossOrthogonality(t *testing.T) {
	prop := func(ax, ay, az, bx, by, bz int8) bool {
		a := Vec3{float64(ax), float64(ay), float64(az)}
		b := Vec3{float64(bx), float64(by), float64(bz)}
		c := a.Cross(b)
		return math.Abs(c.Dot(a)) < 1e-9 && math.Abs(c.Dot(b)) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestGeodeticECEFKnownPoints(t *testing.T) {
	// Equator/prime meridian at sea level: (a, 0, 0).
	g := NewGeodeticDeg(0, 0, 0)
	r := g.ECEF()
	if math.Abs(r.X-EarthRadiusKm) > 1e-6 || math.Abs(r.Y) > 1e-6 || math.Abs(r.Z) > 1e-6 {
		t.Errorf("equator ECEF = %v", r)
	}
	// North pole: z = semi-minor axis b ≈ 6356.752 km.
	g = NewGeodeticDeg(90, 0, 0)
	r = g.ECEF()
	b := EarthRadiusKm * (1 - earthFlattening)
	if math.Abs(r.Z-b) > 1e-6 || math.Hypot(r.X, r.Y) > 1e-6 {
		t.Errorf("pole ECEF = %v, want z=%.6f", r, b)
	}
}

func TestGeodeticECEFRoundTrip(t *testing.T) {
	prop := func(latQ, lonQ, altQ uint16) bool {
		g := Geodetic{
			Lat: (float64(latQ)/65535 - 0.5) * math.Pi * 0.998, // avoid exact poles
			Lon: (float64(lonQ)/65535 - 0.5) * twoPi * 0.999,
			Alt: float64(altQ) / 65535 * 2000,
		}
		back := GeodeticFromECEF(g.ECEF())
		return math.Abs(back.Lat-g.Lat) < 1e-9 &&
			math.Abs(wrapPi(back.Lon-g.Lon)) < 1e-9 &&
			math.Abs(back.Alt-g.Alt) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGeodeticFromECEFPolarDegenerate(t *testing.T) {
	b := EarthRadiusKm * (1 - earthFlattening)
	g := GeodeticFromECEF(Vec3{0, 0, b + 500})
	if math.Abs(g.LatDeg()-90) > 1e-6 || math.Abs(g.Alt-500) > 1e-6 {
		t.Errorf("north polar point = %v", g)
	}
	g = GeodeticFromECEF(Vec3{0, 0, -(b + 500)})
	if math.Abs(g.LatDeg()+90) > 1e-6 {
		t.Errorf("south polar point = %v", g)
	}
}

func TestTEMEToECEFPreservesNorm(t *testing.T) {
	at := time.Date(2024, 10, 1, 12, 0, 0, 0, time.UTC)
	prop := func(x, y, z int16) bool {
		r := Vec3{float64(x), float64(y), float64(z)}
		e, _ := TEMEToECEFVel(r, Vec3{}, at)
		return math.Abs(e.Norm()-r.Norm()) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestTEMEToECEFVelRemovesEarthRotation(t *testing.T) {
	// A satellite in a circular equatorial prograde orbit moving with the
	// Earth's rotation direction has ECEF speed = inertial speed - ω·r.
	at := time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)
	r := Vec3{7000, 0, 0}
	v := Vec3{0, 7.5, 0}
	rE, vE := TEMEToECEFVel(r, v, at)
	if math.Abs(rE.Norm()-7000) > 1e-9 {
		t.Errorf("position norm changed: %v", rE.Norm())
	}
	wantSpeed := 7.5 - EarthRotationRate*7000
	if math.Abs(vE.Norm()-wantSpeed) > 1e-6 {
		t.Errorf("ECEF speed = %.6f, want %.6f", vE.Norm(), wantSpeed)
	}
}

func TestLookStraightUp(t *testing.T) {
	site := NewGeodeticDeg(22.3, 114.2, 0) // Hong Kong
	over := Geodetic{Lat: site.Lat, Lon: site.Lon, Alt: 550}
	la := Look(site, over.ECEF(), Vec3{})
	if la.ElevationDeg() < 89.8 {
		t.Errorf("overhead elevation = %.3f°, want ~90", la.ElevationDeg())
	}
	if math.Abs(la.RangeKm-550) > 3 {
		t.Errorf("overhead range = %.1f km, want ~550", la.RangeKm)
	}
}

func TestLookCardinalAzimuths(t *testing.T) {
	site := NewGeodeticDeg(0, 0, 0) // equator, prime meridian
	cases := []struct {
		name   string
		target Geodetic
		wantAz float64 // degrees
	}{
		{"north", NewGeodeticDeg(5, 0, 500), 0},
		{"east", NewGeodeticDeg(0, 5, 500), 90},
		{"south", NewGeodeticDeg(-5, 0, 500), 180},
		{"west", NewGeodeticDeg(0, -5, 500), 270},
	}
	for _, c := range cases {
		la := Look(site, c.target.ECEF(), Vec3{})
		diff := math.Abs(la.AzimuthDeg() - c.wantAz)
		if diff > 180 {
			diff = 360 - diff
		}
		if diff > 1.0 {
			t.Errorf("%s: azimuth = %.2f°, want %.0f°", c.name, la.AzimuthDeg(), c.wantAz)
		}
	}
}

func TestLookBelowHorizon(t *testing.T) {
	site := NewGeodeticDeg(0, 0, 0)
	// A satellite on the opposite side of the Earth is far below the horizon.
	anti := NewGeodeticDeg(0, 180, 550)
	la := Look(site, anti.ECEF(), Vec3{})
	if la.Elevation > -math.Pi/4 {
		t.Errorf("antipodal elevation = %.1f°, want deeply negative", la.ElevationDeg())
	}
}

func TestLookRangeRateSign(t *testing.T) {
	site := NewGeodeticDeg(0, 0, 0)
	sat := NewGeodeticDeg(0, 10, 550).ECEF()
	// Velocity pointing away from the site along +lon -> receding.
	away := Vec3{-sat.Y, sat.X, 0}.Scale(7.5 / sat.Norm()) // eastward
	la := Look(site, sat, away)
	if la.RangeRate <= 0 {
		t.Errorf("receding satellite has range rate %.3f, want > 0", la.RangeRate)
	}
	la = Look(site, sat, away.Scale(-1))
	if la.RangeRate >= 0 {
		t.Errorf("approaching satellite has range rate %.3f, want < 0", la.RangeRate)
	}
}

func TestHaversine(t *testing.T) {
	hk := NewGeodeticDeg(22.3193, 114.1694, 0)
	syd := NewGeodeticDeg(-33.8688, 151.2093, 0)
	d := HaversineKm(hk, syd)
	// Great-circle HK-Sydney is ~7394 km.
	if d < 7300 || d > 7500 {
		t.Errorf("HK-SYD = %.0f km, want ~7394", d)
	}
	if HaversineKm(hk, hk) != 0 {
		t.Error("distance to self nonzero")
	}
	prop := func(a1, o1, a2, o2 uint16) bool {
		p := Geodetic{Lat: (float64(a1)/65535 - 0.5) * math.Pi, Lon: (float64(o1)/65535 - 0.5) * twoPi}
		q := Geodetic{Lat: (float64(a2)/65535 - 0.5) * math.Pi, Lon: (float64(o2)/65535 - 0.5) * twoPi}
		d1, d2 := HaversineKm(p, q), HaversineKm(q, p)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0 && d1 <= 6371*math.Pi+1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSlantRangeMatchesLook(t *testing.T) {
	site := NewGeodeticDeg(51.5, -0.12, 0)
	sat := NewGeodeticDeg(50, 10, 600).ECEF()
	la := Look(site, sat, Vec3{})
	if d := math.Abs(slantRange(site, sat) - la.RangeKm); d > 1e-9 {
		t.Errorf("SlantRange and Look disagree by %v km", d)
	}
}

// slantRange returns the distance (km) from observer to a satellite at the
// given ECEF position without computing the full look-angle set.
func slantRange(observer Geodetic, rSatECEF Vec3) float64 {
	return rSatECEF.Sub(observer.ECEF()).Norm()
}
