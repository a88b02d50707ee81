package orbit

import (
	"math"
	"testing"
	"time"
)

// KeplerPropagator is a two-body (unperturbed, apart from secular J2 node
// and perigee drift) propagator, kept as test code next to the analytic
// oracles: an independent cross-check on SGP4, which over a few orbits must
// agree with it to within the well-known short-period perturbation
// amplitude (tens of km for LEO).
type KeplerPropagator struct {
	els Elements

	a       float64 // semi-major axis, km
	n       float64 // mean motion, rad/s
	raanDot float64 // secular J2 node regression, rad/s
	argpDot float64 // secular J2 perigee drift, rad/s
	mDot    float64 // secular J2 mean-anomaly drift, rad/s (on top of n)
}

// NewKeplerPropagator builds the baseline propagator from the same element
// set SGP4 consumes.
func NewKeplerPropagator(e Elements) *KeplerPropagator {
	n := e.MeanMotion / 60.0 // rad/s
	a := math.Cbrt(gravityMu / (n * n))
	cosi := math.Cos(e.Inclination)
	p := a * (1 - e.Eccentricity*e.Eccentricity)
	factor := 1.5 * j2 * (gravityRadiusKm / p) * (gravityRadiusKm / p) * n
	return &KeplerPropagator{
		els:     e,
		a:       a,
		n:       n,
		raanDot: -factor * cosi,
		argpDot: factor * (2 - 2.5*math.Sin(e.Inclination)*math.Sin(e.Inclination)),
		mDot:    factor * math.Sqrt(1-e.Eccentricity*e.Eccentricity) * (1 - 1.5*math.Sin(e.Inclination)*math.Sin(e.Inclination)),
	}
}

// SemiMajorAxisKm returns the orbit's semi-major axis.
func (k *KeplerPropagator) SemiMajorAxisKm() float64 { return k.a }

// PropagateTo returns the TEME state at time t.
func (k *KeplerPropagator) PropagateTo(t time.Time) State {
	dt := t.Sub(k.els.Epoch).Seconds()
	return k.propagate(dt)
}

// propagate advances dt seconds past epoch.
func (k *KeplerPropagator) propagate(dt float64) State {
	e := k.els.Eccentricity
	m := wrapTwoPi(k.els.MeanAnomaly + (k.n+k.mDot)*dt)
	raan := k.els.RAAN + k.raanDot*dt
	argp := k.els.ArgPerigee + k.argpDot*dt

	// Solve Kepler's equation M = E - e sinE by Newton iteration.
	ea := m
	if e > 0.8 {
		ea = math.Pi
	}
	for i := 0; i < 20; i++ {
		d := (ea - e*math.Sin(ea) - m) / (1 - e*math.Cos(ea))
		ea -= d
		if math.Abs(d) < 1e-12 {
			break
		}
	}
	sinE, cosE := math.Sin(ea), math.Cos(ea)

	// True anomaly and radius.
	nu := math.Atan2(math.Sqrt(1-e*e)*sinE, cosE-e)
	r := k.a * (1 - e*cosE)

	// Perifocal position/velocity.
	pSLR := k.a * (1 - e*e)
	rp := Vec3{r * math.Cos(nu), r * math.Sin(nu), 0}
	vScale := math.Sqrt(gravityMu / pSLR)
	vp := Vec3{-vScale * math.Sin(nu), vScale * (e + math.Cos(nu)), 0}

	// Rotate perifocal → inertial: Rz(-raan) Rx(-i) Rz(-argp).
	rPos := rotZInv(rotXInv(rotZInv(rp, argp), k.els.Inclination), raan)
	vVel := rotZInv(rotXInv(rotZInv(vp, argp), k.els.Inclination), raan)
	return State{Position: rPos, Velocity: vVel}
}

// rotZInv rotates the vector by +theta about Z (inverse frame rotation).
func rotZInv(v Vec3, theta float64) Vec3 {
	c, s := math.Cos(theta), math.Sin(theta)
	return Vec3{c*v.X - s*v.Y, s*v.X + c*v.Y, v.Z}
}

// rotXInv rotates the vector by +theta about X.
func rotXInv(v Vec3, theta float64) Vec3 {
	c, s := math.Cos(theta), math.Sin(theta)
	return Vec3{v.X, c*v.Y - s*v.Z, s*v.Y + c*v.Z}
}

func keplerElements() Elements {
	return Elements{
		NoradID:      90500,
		Name:         "KEPLER-TEST",
		Epoch:        time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC),
		Inclination:  51.6 * deg2Rad,
		Eccentricity: 0.001,
		ArgPerigee:   0.3,
		MeanAnomaly:  1.1,
		MeanMotion:   MeanMotionFromAltitude(550),
	}
}

func TestKeplerCircularRadius(t *testing.T) {
	e := keplerElements()
	k := NewKeplerPropagator(e)
	if a := k.SemiMajorAxisKm(); math.Abs(a-(gravityRadiusKm+550)) > 1 {
		t.Errorf("semi-major axis %.1f, want ≈%.1f", a, gravityRadiusKm+550)
	}
	// Near-circular orbit: radius stays within a·(1±2e).
	for m := 0; m < 200; m += 13 {
		s := k.PropagateTo(e.Epoch.Add(time.Duration(m) * time.Minute))
		r := s.Position.Norm()
		if math.Abs(r-k.SemiMajorAxisKm()) > k.SemiMajorAxisKm()*0.003 {
			t.Errorf("t=+%dm: radius %.1f deviates from circular", m, r)
		}
	}
}

func TestKeplerPeriodicity(t *testing.T) {
	e := keplerElements()
	k := NewKeplerPropagator(e)
	period := twoPi / e.MeanMotion // minutes
	s0 := k.PropagateTo(e.Epoch)
	s1 := k.PropagateTo(e.Epoch.Add(time.Duration(period * float64(time.Minute))))
	// After one period the position nearly repeats (small J2 drift only).
	if d := s0.Position.Sub(s1.Position).Norm(); d > 30 {
		t.Errorf("position after one period differs by %.1f km", d)
	}
}

func TestKeplerVisViva(t *testing.T) {
	e := keplerElements()
	k := NewKeplerPropagator(e)
	a := k.SemiMajorAxisKm()
	for m := 0; m < 300; m += 17 {
		s := k.PropagateTo(e.Epoch.Add(time.Duration(m) * time.Minute))
		r := s.Position.Norm()
		v2 := s.Velocity.Dot(s.Velocity)
		want := gravityMu * (2/r - 1/a)
		if rel := math.Abs(v2-want) / want; rel > 1e-3 {
			t.Errorf("t=+%dm: vis-viva off by %.4f%%", m, rel*100)
		}
	}
}

func TestKeplerAngularMomentumDirection(t *testing.T) {
	e := keplerElements()
	k := NewKeplerPropagator(e)
	s := k.PropagateTo(e.Epoch.Add(37 * time.Minute))
	h := s.Position.Cross(s.Velocity)
	incl := math.Acos(h.Z / h.Norm())
	if math.Abs(incl-e.Inclination) > 1e-6 {
		t.Errorf("inclination from h = %.6f, want %.6f", incl, e.Inclination)
	}
}

func TestKeplerNodeRegressionSign(t *testing.T) {
	// Prograde orbit (i < 90°): node regresses westward (raanDot < 0).
	k := NewKeplerPropagator(keplerElements())
	if k.raanDot >= 0 {
		t.Errorf("prograde raanDot = %v, want negative", k.raanDot)
	}
	// Retrograde (i > 90°): node advances.
	e := keplerElements()
	e.Inclination = 97.5 * deg2Rad
	k = NewKeplerPropagator(e)
	if k.raanDot <= 0 {
		t.Errorf("retrograde raanDot = %v, want positive", k.raanDot)
	}
}

func TestKeplerEccentricOrbit(t *testing.T) {
	// A mildly eccentric orbit: perigee/apogee radii match a(1∓e).
	e := keplerElements()
	e.Eccentricity = 0.02
	e.MeanAnomaly = 0 // start at perigee
	k := NewKeplerPropagator(e)
	a := k.SemiMajorAxisKm()

	s := k.PropagateTo(e.Epoch)
	if r := s.Position.Norm(); math.Abs(r-a*(1-0.02)) > 2 {
		t.Errorf("perigee radius %.1f, want %.1f", r, a*0.98)
	}
	// Half a period later: apogee.
	half := time.Duration(twoPi / e.MeanMotion / 2 * float64(time.Minute))
	s = k.PropagateTo(e.Epoch.Add(half))
	if r := s.Position.Norm(); math.Abs(r-a*(1+0.02)) > 5 {
		t.Errorf("apogee radius %.1f, want %.1f", r, a*1.02)
	}
}
