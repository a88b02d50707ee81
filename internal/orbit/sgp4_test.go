package orbit

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func issProp(t *testing.T) *Propagator {
	t.Helper()
	tle, err := ParseTLE(issTLE)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPropagatorFromTLE(tle)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSGP4EpochState(t *testing.T) {
	p := issProp(t)
	s, err := p.PropagateMinutes(0)
	if err != nil {
		t.Fatal(err)
	}
	// Orbit radius must equal ISS altitude band (340-360 km + Earth radius)
	r := s.Position.Norm()
	if r < 6700 || r > 6760 {
		t.Errorf("epoch radius = %.1f km, want ISS band ~6715-6745", r)
	}
	// Orbital speed for a circular LEO is ~7.66 km/s.
	v := s.Velocity.Norm()
	if v < 7.5 || v > 7.8 {
		t.Errorf("epoch speed = %.3f km/s, want ~7.66", v)
	}
	// Velocity is essentially perpendicular to position for e≈0.0007.
	cosAngle := s.Position.Dot(s.Velocity) / (r * v)
	if math.Abs(cosAngle) > 0.01 {
		t.Errorf("r·v alignment = %.4f, want ~0", cosAngle)
	}
}

func TestSGP4PeriodMatchesMeanMotion(t *testing.T) {
	p := issProp(t)
	// After exactly one anomalistic period the radius profile repeats.
	period := twoPi / p.els.MeanMotion // minutes
	s0, err := p.PropagateMinutes(0)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := p.PropagateMinutes(period)
	if err != nil {
		t.Fatal(err)
	}
	// Position won't repeat exactly (node regression) but radius must.
	if d := math.Abs(s0.Position.Norm() - s1.Position.Norm()); d > 5 {
		t.Errorf("radius after one period differs by %.2f km", d)
	}
}

func TestSGP4EnergyConsistency(t *testing.T) {
	// Vis-viva: v² = mu(2/r - 1/a) must hold within the perturbation noise.
	p := issProp(t)
	a := math.Pow(xke/p.noUnkozai, x2o3) * gravityRadiusKm
	for _, tsince := range []float64{0, 10, 45, 90, 360, 1440} {
		s, err := p.PropagateMinutes(tsince)
		if err != nil {
			t.Fatal(err)
		}
		r := s.Position.Norm()
		v2 := s.Velocity.Dot(s.Velocity)
		want := gravityMu * (2/r - 1/a)
		if rel := math.Abs(v2-want) / want; rel > 0.01 {
			t.Errorf("t=%v: vis-viva violated by %.3f%%", tsince, rel*100)
		}
	}
}

func TestSGP4InclinationPreserved(t *testing.T) {
	// The angular momentum vector's tilt must equal the inclination.
	p := issProp(t)
	for _, tsince := range []float64{0, 30, 720} {
		s, err := p.PropagateMinutes(tsince)
		if err != nil {
			t.Fatal(err)
		}
		h := s.Position.Cross(s.Velocity)
		incl := math.Acos(h.Z / h.Norm())
		if math.Abs(incl-p.els.Inclination) > 0.01 {
			t.Errorf("t=%v: inclination %.4f rad, want %.4f", tsince, incl, p.els.Inclination)
		}
	}
}

func TestSGP4NodeRegression(t *testing.T) {
	// For a prograde LEO, J2 makes the node regress westward (~-5°/day for
	// ISS). Check sign and magnitude of nodedot.
	p := issProp(t)
	degPerDay := p.nodedot * minutesPerDay * rad2Deg
	if degPerDay > -4 || degPerDay < -6 {
		t.Errorf("node regression %.2f°/day, want ≈ -5", degPerDay)
	}
}

func TestSGP4KeplerAgreement(t *testing.T) {
	// SGP4 vs two-body must agree to within the short-period J2 amplitude
	// over a single orbit (tens of km for LEO).
	tle, err := ParseTLE(issTLE)
	if err != nil {
		t.Fatal(err)
	}
	els := tle.Elements()
	els.BStar = 0 // compare pure gravity solutions
	sg, err := NewPropagator(els)
	if err != nil {
		t.Fatal(err)
	}
	kp := NewKeplerPropagator(els)
	for _, dt := range []time.Duration{0, 20 * time.Minute, 50 * time.Minute, 92 * time.Minute} {
		at := els.Epoch.Add(dt)
		s1, err := sg.PropagateTo(at)
		if err != nil {
			t.Fatal(err)
		}
		s2 := kp.PropagateTo(at)
		if d := s1.Position.Sub(s2.Position).Norm(); d > 60 {
			t.Errorf("dt=%v: SGP4 vs Kepler diverge by %.1f km", dt, d)
		}
	}
}

func TestSGP4DeepSpaceRejected(t *testing.T) {
	e := Elements{
		Epoch:        time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC),
		Inclination:  0.1,
		Eccentricity: 0.01,
		MeanMotion:   twoPi / (24 * 60), // geosynchronous-ish, period 1436 min
	}
	if _, err := NewPropagator(e); !errors.Is(err, ErrDeepSpace) {
		t.Errorf("want ErrDeepSpace, got %v", err)
	}
}

func TestSGP4BadElements(t *testing.T) {
	base := Elements{
		Epoch:       time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC),
		Inclination: 0.9,
		MeanMotion:  MeanMotionFromAltitude(550),
	}
	bad := base
	bad.Eccentricity = 1.2
	if _, err := NewPropagator(bad); !errors.Is(err, ErrBadElements) {
		t.Errorf("ecc>1: want ErrBadElements, got %v", err)
	}
	bad = base
	bad.Eccentricity = -0.1
	if _, err := NewPropagator(bad); !errors.Is(err, ErrBadElements) {
		t.Errorf("ecc<0: want ErrBadElements, got %v", err)
	}
	bad = base
	bad.MeanMotion = 0
	if _, err := NewPropagator(bad); !errors.Is(err, ErrBadElements) {
		t.Errorf("n=0: want ErrBadElements, got %v", err)
	}
	bad = base
	bad.Eccentricity = 0.9 // perigee far below the surface
	if _, err := NewPropagator(bad); !errors.Is(err, ErrBadElements) {
		t.Errorf("sub-surface perigee: want ErrBadElements, got %v", err)
	}
}

func TestSGP4GroundSpeedLEO(t *testing.T) {
	// The paper states LEO satellites at 500 km move at ~7.6 km/s.
	e := Elements{
		NoradID:      90002,
		Epoch:        time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC),
		Inclination:  97.5 * deg2Rad,
		Eccentricity: 0.0005,
		MeanMotion:   MeanMotionFromAltitude(500),
	}
	p, err := NewPropagator(e)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.PropagateMinutes(17)
	if err != nil {
		t.Fatal(err)
	}
	if v := s.Velocity.Norm(); math.Abs(v-7.6) > 0.1 {
		t.Errorf("500 km orbital speed = %.3f km/s, want ≈7.6", v)
	}
}

func TestSGP4AltitudeStaysInBand(t *testing.T) {
	// A near-circular synthetic Tianqi-like orbit must stay within a few km
	// of its design band over a week.
	e := Elements{
		NoradID:      90003,
		Epoch:        time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC),
		Inclination:  49.97 * deg2Rad,
		Eccentricity: 0.001,
		MeanMotion:   MeanMotionFromAltitude(860),
		BStar:        1e-5,
	}
	p, err := NewPropagator(e)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(minOffset uint16) bool {
		tsince := math.Mod(float64(minOffset), 7*24*60)
		s, err := p.PropagateMinutes(tsince)
		if err != nil {
			return false
		}
		alt := s.Position.Norm() - gravityRadiusKm
		return alt > 820 && alt < 900
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSGP4Concurrency(t *testing.T) {
	// Propagate must be safe from multiple goroutines (it's documented so).
	p := issProp(t)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 200; i++ {
				_, err = p.PropagateMinutes(float64(g*200 + i))
				if err != nil {
					break
				}
			}
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSubpointWithinInclination(t *testing.T) {
	// The sub-satellite latitude can never exceed the inclination.
	p := issProp(t)
	epoch := p.Elements().Epoch
	for m := 0; m < 300; m += 7 {
		g, err := p.Subpoint(epoch.Add(time.Duration(m) * time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(g.Lat) > p.els.Inclination+0.02 {
			t.Errorf("t=+%dm: |lat| %.4f exceeds inclination %.4f", m, math.Abs(g.Lat), p.els.Inclination)
		}
		if g.Alt < 300 || g.Alt > 400 {
			t.Errorf("t=+%dm: subpoint altitude %.1f outside ISS band", m, g.Alt)
		}
	}
}

// TestSincosMatchesSinCos pins the identity PropagateMinutes and rotZ rely
// on: math.Sincos(x) returns (math.Sin(x), math.Cos(x)) bit for bit. The
// inputs cover signed zeros, subnormals, multiples of π/4 (the octant
// boundaries of the argument reduction), both sides of the 2^29 threshold
// where the reduction switches to Payne–Hanek, the non-finite inputs and
// a seeded random sweep of the magnitudes SGP4 feeds it.
func TestSincosMatchesSinCos(t *testing.T) {
	xs := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), 1e-310, -1e-300,
		1 << 29, math.Nextafter(1<<29, 0), math.Nextafter(1<<29, math.Inf(1)),
		-(1 << 29), 1e10, 1e300, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for k := -64; k <= 64; k++ {
		x := float64(k) * math.Pi / 4
		xs = append(xs, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200000; i++ {
		// Angles of a few turns (orientation, Kepler), of many (secular
		// drift over years), and of any exponent.
		xs = append(xs, (rng.Float64()-0.5)*4*math.Pi, (rng.Float64()-0.5)*1e6,
			math.Float64frombits(rng.Uint64()))
	}
	for _, x := range xs {
		s, c := math.Sincos(x)
		if math.Float64bits(s) != math.Float64bits(math.Sin(x)) || math.Float64bits(c) != math.Float64bits(math.Cos(x)) {
			if math.IsNaN(x) && math.IsNaN(s) && math.IsNaN(c) && math.IsNaN(math.Sin(x)) && math.IsNaN(math.Cos(x)) {
				continue // NaN payloads are not arithmetic results
			}
			t.Fatalf("Sincos(%v [%#016x]) = (%v, %v), Sin/Cos = (%v, %v)", x, math.Float64bits(x), s, c, math.Sin(x), math.Cos(x))
		}
	}
}
