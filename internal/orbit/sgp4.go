package orbit

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// WGS-72 gravity constants, matching the reference SGP4 implementation
// distributed with "Revisiting Spacetrack Report #3" (Vallado et al., 2006).
const (
	gravityMu       = 398600.8              // km³/s²
	gravityRadiusKm = 6378.135              // km, equatorial radius used by SGP4
	xke             = 0.0743669161331734049 // sqrt-of-gravity constant, (er/min)^(3/2) units
	tumin           = 1.0 / xke
	j2              = 0.001082616
	j3              = -0.00000253881
	j4              = -0.00000165597
	j3oj2           = j3 / j2
	x2o3            = 2.0 / 3.0
	vkmpersec       = gravityRadiusKm * xke / 60.0
)

// Errors returned by the propagator.
var (
	ErrDeepSpace   = errors.New("orbit: deep-space orbit (period >= 225 min) not supported by the near-earth SGP4 model")
	ErrDecayed     = errors.New("orbit: satellite has decayed")
	ErrBadElements = errors.New("orbit: elements produce non-physical orbit")
)

// Propagator is an initialized SGP4 near-earth propagator for one element
// set.
//
// A Propagator is NOT guaranteed goroutine-safe: callers must not share one
// instance across goroutines and should hand each worker its own Clone
// (cheap — initialization is not redone). The propagation methods are
// currently read-only, an invariant this package relies on internally (see
// Ephemeris) and guards with a -race regression test, but external callers
// must not depend on it: the type reserves the right to memoize.
type Propagator struct {
	els Elements

	// Recovered (un-Kozai'd) mean motion and semi-major axis.
	noUnkozai float64
	ao        float64
	// Sine and cosine of the inclination, which near-earth SGP4 holds
	// constant.
	sinio, cosio float64

	isimp bool

	// Secular rate and drag coefficients (names follow the reference code).
	con41, x1mth2, x7thm1      float64
	cc1, cc4, cc5              float64
	d2, d3, d4                 float64
	delmo, eta, sinmao         float64
	argpdot, mdot, nodedot     float64
	omgcof, xmcof, nodecf      float64
	t2cof, t3cof, t4cof, t5cof float64
	xlcof, aycof               float64
}

// NewPropagator initializes SGP4 for the element set. It rejects deep-space
// orbits (none of the paper's constellations come close) and non-physical
// element combinations.
func NewPropagator(e Elements) (*Propagator, error) {
	if e.Eccentricity < 0 || e.Eccentricity >= 1 {
		return nil, fmt.Errorf("%w: eccentricity %v", ErrBadElements, e.Eccentricity)
	}
	if e.MeanMotion <= 0 {
		return nil, fmt.Errorf("%w: mean motion %v", ErrBadElements, e.MeanMotion)
	}

	p := &Propagator{els: e}

	ecco := e.Eccentricity
	inclo := e.Inclination
	noKozai := e.MeanMotion

	sinio, cosio := math.Sincos(inclo)
	p.sinio, p.cosio = sinio, cosio
	cosio2 := cosio * cosio
	eccsq := ecco * ecco
	omeosq := 1.0 - eccsq
	rteosq := math.Sqrt(omeosq)

	// Un-Kozai the mean motion.
	ak := math.Pow(xke/noKozai, x2o3)
	d1 := 0.75 * j2 * (3.0*cosio2 - 1.0) / (rteosq * omeosq)
	del := d1 / (ak * ak)
	adel := ak * (1.0 - del*del - del*(1.0/3.0+134.0*del*del/81.0))
	del = d1 / (adel * adel)
	p.noUnkozai = noKozai / (1.0 + del)

	p.ao = math.Pow(xke/p.noUnkozai, x2o3)
	po := p.ao * omeosq
	con42 := 1.0 - 5.0*cosio2
	p.con41 = -con42 - cosio2 - cosio2
	posq := po * po
	rp := p.ao * (1.0 - ecco)

	// Deep-space check: period >= 225 minutes.
	if twoPi/p.noUnkozai >= 225.0 {
		return nil, ErrDeepSpace
	}
	if rp < 1.0 {
		return nil, fmt.Errorf("%w: perigee below the surface", ErrBadElements)
	}

	p.isimp = rp < 220.0/gravityRadiusKm+1.0

	sfour := 78.0/gravityRadiusKm + 1.0
	qzms24 := math.Pow((120.0-78.0)/gravityRadiusKm, 4)
	perige := (rp - 1.0) * gravityRadiusKm
	if perige < 156.0 {
		sfour = perige - 78.0
		if perige < 98.0 {
			sfour = 20.0
		}
		qzms24 = math.Pow((120.0-sfour)/gravityRadiusKm, 4)
		sfour = sfour/gravityRadiusKm + 1.0
	}
	pinvsq := 1.0 / posq

	tsi := 1.0 / (p.ao - sfour)
	p.eta = p.ao * ecco * tsi
	etasq := p.eta * p.eta
	eeta := ecco * p.eta
	psisq := math.Abs(1.0 - etasq)
	coef := qzms24 * math.Pow(tsi, 4)
	coef1 := coef / math.Pow(psisq, 3.5)
	cc2 := coef1 * p.noUnkozai * (p.ao*(1.0+1.5*etasq+eeta*(4.0+etasq)) +
		0.375*j2*tsi/psisq*p.con41*(8.0+3.0*etasq*(8.0+etasq)))
	p.cc1 = e.BStar * cc2
	cc3 := 0.0
	if ecco > 1.0e-4 {
		cc3 = -2.0 * coef * tsi * j3oj2 * p.noUnkozai * sinio / ecco
	}
	p.x1mth2 = 1.0 - cosio2
	p.cc4 = 2.0 * p.noUnkozai * coef1 * p.ao * omeosq *
		(p.eta*(2.0+0.5*etasq) + ecco*(0.5+2.0*etasq) -
			j2*tsi/(p.ao*psisq)*
				(-3.0*p.con41*(1.0-2.0*eeta+etasq*(1.5-0.5*eeta))+
					0.75*p.x1mth2*(2.0*etasq-eeta*(1.0+etasq))*math.Cos(2.0*e.ArgPerigee)))
	p.cc5 = 2.0 * coef1 * p.ao * omeosq * (1.0 + 2.75*(etasq+eeta) + eeta*etasq)

	cosio4 := cosio2 * cosio2
	temp1 := 1.5 * j2 * pinvsq * p.noUnkozai
	temp2 := 0.5 * temp1 * j2 * pinvsq
	temp3 := -0.46875 * j4 * pinvsq * pinvsq * p.noUnkozai
	p.mdot = p.noUnkozai + 0.5*temp1*rteosq*p.con41 +
		0.0625*temp2*rteosq*(13.0-78.0*cosio2+137.0*cosio4)
	p.argpdot = -0.5*temp1*con42 +
		0.0625*temp2*(7.0-114.0*cosio2+395.0*cosio4) +
		temp3*(3.0-36.0*cosio2+49.0*cosio4)
	xhdot1 := -temp1 * cosio
	p.nodedot = xhdot1 + (0.5*temp2*(4.0-19.0*cosio2)+2.0*temp3*(3.0-7.0*cosio2))*cosio
	p.omgcof = e.BStar * cc3 * math.Cos(e.ArgPerigee)
	p.xmcof = 0.0
	if ecco > 1.0e-4 {
		p.xmcof = -x2o3 * coef * e.BStar / eeta
	}
	p.nodecf = 3.5 * omeosq * xhdot1 * p.cc1
	p.t2cof = 1.5 * p.cc1
	// Avoid division by zero for inclination near 180°.
	if math.Abs(cosio+1.0) > 1.5e-12 {
		p.xlcof = -0.25 * j3oj2 * sinio * (3.0 + 5.0*cosio) / (1.0 + cosio)
	} else {
		p.xlcof = -0.25 * j3oj2 * sinio * (3.0 + 5.0*cosio) / 1.5e-12
	}
	p.aycof = -0.5 * j3oj2 * sinio
	p.delmo = math.Pow(1.0+p.eta*math.Cos(e.MeanAnomaly), 3)
	p.sinmao = math.Sin(e.MeanAnomaly)
	p.x7thm1 = 7.0*cosio2 - 1.0

	if !p.isimp {
		cc1sq := p.cc1 * p.cc1
		p.d2 = 4.0 * p.ao * tsi * cc1sq
		temp := p.d2 * tsi * p.cc1 / 3.0
		p.d3 = (17.0*p.ao + sfour) * temp
		p.d4 = 0.5 * temp * p.ao * tsi * (221.0*p.ao + 31.0*sfour) * p.cc1
		p.t3cof = p.d2 + 2.0*cc1sq
		p.t4cof = 0.25 * (3.0*p.d3 + p.cc1*(12.0*p.d2+10.0*cc1sq))
		p.t5cof = 0.2 * (3.0*p.d4 + 12.0*p.cc1*p.d3 + 6.0*p.d2*p.d2 +
			15.0*cc1sq*(2.0*p.d2+cc1sq))
	}
	return p, nil
}

// NewPropagatorFromTLE initializes SGP4 directly from a parsed TLE.
func NewPropagatorFromTLE(t TLE) (*Propagator, error) {
	return NewPropagator(t.Elements())
}

// Elements returns the element set the propagator was built from.
func (p *Propagator) Elements() Elements { return p.els }

// Clone returns an independent copy of the propagator. All initialization
// coefficients are plain values, so a shallow copy yields a propagator that
// shares no mutable state with the receiver; use one Clone per goroutine.
func (p *Propagator) Clone() *Propagator {
	cp := *p
	return &cp
}

// State is the propagated position/velocity in the TEME frame.
type State struct {
	Position Vec3 // km, TEME
	Velocity Vec3 // km/s, TEME
}

// PropagateMinutes advances the orbit tsince minutes past the element epoch
// and returns the TEME state.
func (p *Propagator) PropagateMinutes(tsince float64) (State, error) {
	if m := metrics.Load(); m != nil {
		m.sgp4Calls.Inc()
	}
	var s State

	// Secular gravity and atmospheric drag.
	xmdf := p.els.MeanAnomaly + p.mdot*tsince
	argpdf := p.els.ArgPerigee + p.argpdot*tsince
	nodedf := p.els.RAAN + p.nodedot*tsince
	argpm := argpdf
	mm := xmdf
	t2 := tsince * tsince
	nodem := nodedf + p.nodecf*t2
	tempa := 1.0 - p.cc1*tsince
	tempe := p.els.BStar * p.cc4 * tsince
	templ := p.t2cof * t2

	if !p.isimp {
		delomg := p.omgcof * tsince
		delmtemp := 1.0 + p.eta*math.Cos(xmdf)
		delm := p.xmcof * (delmtemp*delmtemp*delmtemp - p.delmo)
		temp := delomg + delm
		mm = xmdf + temp
		argpm = argpdf - temp
		t3 := t2 * tsince
		t4 := t3 * tsince
		tempa = tempa - p.d2*t2 - p.d3*t3 - p.d4*t4
		tempe = tempe + p.els.BStar*p.cc5*(math.Sin(mm)-p.sinmao)
		templ = templ + p.t3cof*t3 + t4*(p.t4cof+tsince*p.t5cof)
	}

	nm := p.noUnkozai
	em := p.els.Eccentricity
	inclm := p.els.Inclination

	// p.ao is math.Pow(xke/nm, x2o3) at this nm, bit for bit.
	am := p.ao * tempa * tempa
	nm = xke / math.Pow(am, 1.5)
	em -= tempe

	if em >= 1.0 || em < -0.001 {
		return s, fmt.Errorf("%w: eccentricity %v at tsince %.1f", ErrBadElements, em, tsince)
	}
	if em < 1.0e-6 {
		em = 1.0e-6
	}
	mm += p.noUnkozai * templ
	xlm := mm + argpm + nodem

	nodem = wrapTwoPi(nodem)
	argpm = wrapTwoPi(argpm)
	xlm = wrapTwoPi(xlm)
	mm = wrapTwoPi(xlm - argpm - nodem)

	sinim, cosim := p.sinio, p.cosio

	// No deep-space contributions: near-earth only.
	ep := em
	xincp := inclm
	argpp := argpm
	nodep := nodem
	mp := mm
	sinip := sinim
	cosip := cosim

	// Long-period periodics.
	// math.Sincos(x) is (math.Sin(x), math.Cos(x)) bit for bit: one
	// argument reduction, the same polynomials.
	sinargp, cosargp := math.Sincos(argpp)
	axnl := ep * cosargp
	temp := 1.0 / (am * (1.0 - ep*ep))
	aynl := ep*sinargp + temp*p.aycof
	xl := mp + argpp + nodep + temp*p.xlcof*axnl

	// Solve Kepler's equation.
	u := wrapTwoPi(xl - nodep)
	eo1 := u
	tem5 := 9999.9
	ktr := 1
	var sineo1, coseo1 float64
	for math.Abs(tem5) >= 1.0e-12 && ktr <= 10 {
		sineo1, coseo1 = math.Sincos(eo1)
		tem5 = 1.0 - coseo1*axnl - sineo1*aynl
		tem5 = (u - aynl*coseo1 + axnl*sineo1 - eo1) / tem5
		if math.Abs(tem5) >= 0.95 {
			if tem5 > 0 {
				tem5 = 0.95
			} else {
				tem5 = -0.95
			}
		}
		eo1 += tem5
		ktr++
	}

	// Short-period preliminary quantities.
	ecose := axnl*coseo1 + aynl*sineo1
	esine := axnl*sineo1 - aynl*coseo1
	el2 := axnl*axnl + aynl*aynl
	pl := am * (1.0 - el2)
	if pl < 0 {
		return s, fmt.Errorf("%w: semi-latus rectum %v", ErrBadElements, pl)
	}

	rl := am * (1.0 - ecose)
	rdotl := math.Sqrt(am) * esine / rl
	rvdotl := math.Sqrt(pl) / rl
	betal := math.Sqrt(1.0 - el2)
	temp = esine / (1.0 + betal)
	sinu := am / rl * (sineo1 - aynl - axnl*temp)
	cosu := am / rl * (coseo1 - axnl + aynl*temp)
	su := math.Atan2(sinu, cosu)
	sin2u := (cosu + cosu) * sinu
	cos2u := 1.0 - 2.0*sinu*sinu
	temp = 1.0 / pl
	temp1 := 0.5 * j2 * temp
	temp2 := temp1 * temp

	// Update for short-period periodics.
	mrt := rl*(1.0-1.5*temp2*betal*p.con41) + 0.5*temp1*p.x1mth2*cos2u
	su -= 0.25 * temp2 * p.x7thm1 * sin2u
	xnode := nodep + 1.5*temp2*cosip*sin2u
	xinc := xincp + 1.5*temp2*cosip*sinip*cos2u
	mvt := rdotl - nm*temp1*p.x1mth2*sin2u/xke
	rvdot := rvdotl + nm*temp1*(p.x1mth2*cos2u+1.5*p.con41)/xke

	// Orientation vectors.
	sinsu, cossu := math.Sincos(su)
	snod, cnod := math.Sincos(xnode)
	sini, cosi := math.Sincos(xinc)
	xmx := -snod * cosi
	xmy := cnod * cosi
	ux := xmx*sinsu + cnod*cossu
	uy := xmy*sinsu + snod*cossu
	uz := sini * sinsu
	vx := xmx*cossu - cnod*sinsu
	vy := xmy*cossu - snod*sinsu
	vz := sini * cossu

	s.Position = Vec3{mrt * ux, mrt * uy, mrt * uz}.Scale(gravityRadiusKm)
	s.Velocity = Vec3{
		mvt*ux + rvdot*vx,
		mvt*uy + rvdot*vy,
		mvt*uz + rvdot*vz,
	}.Scale(vkmpersec)

	if mrt < 1.0 {
		return s, ErrDecayed
	}
	return s, nil
}

// PropagateTo advances the orbit to the absolute time t.
func (p *Propagator) PropagateTo(t time.Time) (State, error) {
	tsince := t.Sub(p.els.Epoch).Minutes()
	return p.PropagateMinutes(tsince)
}

// PositionECEF propagates to t and returns the satellite's ECEF position
// and velocity.
func (p *Propagator) PositionECEF(t time.Time) (r, v Vec3, err error) {
	s, err := p.PropagateTo(t)
	if err != nil {
		return Vec3{}, Vec3{}, err
	}
	r, v = TEMEToECEFVel(s.Position, s.Velocity, t)
	return r, v, nil
}

// Subpoint propagates to t and returns the sub-satellite geodetic point.
func (p *Propagator) Subpoint(t time.Time) (Geodetic, error) {
	r, _, err := p.PositionECEF(t)
	if err != nil {
		return Geodetic{}, err
	}
	return GeodeticFromECEF(r), nil
}
