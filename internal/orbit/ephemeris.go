package orbit

import (
	"math"
	"time"
)

// StateSource supplies satellite ECEF state for pass prediction. Both the
// raw SGP4 Propagator and the precomputed Ephemeris implement it, so a
// PassPredictor can run against either exact propagation or shared samples.
type StateSource interface {
	// PositionECEF returns the satellite's ECEF position (km) and velocity
	// (km/s) at t.
	PositionECEF(t time.Time) (r, v Vec3, err error)
	// Elements returns the element set the source propagates.
	Elements() Elements
}

// EphemerisConfig sizes and bounds an ephemeris grid.
type EphemerisConfig struct {
	// ScanStep is the pass-search coarse step the ephemeris serves
	// (NewEphemerisPredictor adopts it). Defaults to 30 s.
	ScanStep time.Duration

	// SampleStep is the sampling grid step. Zero picks a step
	// automatically: ScanStep in exact mode; in interpolated mode the
	// coarsest of {ScanStep, 3 min} that survives validation against
	// MaxInterpErrorKm (halved until the bound holds).
	SampleStep time.Duration

	// MaxInterpErrorKm bounds the positional error of Hermite
	// interpolation between samples. Construction probes interval
	// midpoints against exact SGP4 and tightens the sample step until the
	// worst probed error is below the bound. Zero defaults to
	// DefaultMaxInterpErrorKm. Ignored in exact mode.
	MaxInterpErrorKm float64

	// Exact disables interpolation: every off-grid query falls back to
	// exact SGP4 propagation, preserving the pre-interpolation behavior
	// bit for bit.
	Exact bool
}

// DefaultMaxInterpErrorKm is the default positional bound for Hermite
// interpolation: 50 m, which at LEO slant ranges (≥ 400 km) keeps the
// derived elevation-angle error under ~0.008°.
const DefaultMaxInterpErrorKm = 0.05

// defaultInterpSampleStep is the coarsest sample step interpolated grids
// try before validation. For near-circular LEO the cubic Hermite error
// grows as (ωh)⁴·r/384, which at h = 3 min is ~30 m — inside the default
// bound with margin; eccentric or very low orbits fail the probe and the
// constructor halves the step until they pass.
const defaultInterpSampleStep = 3 * time.Minute

func (c *EphemerisConfig) setDefaults() {
	if c.ScanStep <= 0 {
		c.ScanStep = 30 * time.Second
	}
	if c.MaxInterpErrorKm <= 0 {
		c.MaxInterpErrorKm = DefaultMaxInterpErrorKm
	}
}

// Ephemeris is a precomputed, immutable sampling of one satellite's ECEF
// trajectory on a fixed time grid. The satellite state at a timestep is
// site-independent, so one Ephemeris serves pass searches for every ground
// site in a campaign: queries that land on the grid are answered from the
// shared samples; any other instant inside the span is answered by cubic
// Hermite interpolation from the bracketing (position, velocity) samples,
// whose positional error is validated at construction to stay below the
// configured MaxInterpErrorKm. Queries outside the span — and every
// off-grid query of an Exact-mode ephemeris — fall back to exact SGP4 on
// an internal clone.
//
// Samples are stored struct-of-arrays: six contiguous []float64 component
// arrays rather than []Vec3, so a whole-constellation EphemerisGrid can
// back thousands of satellites with six allocations total and row views
// share the backing arrays without copying.
//
// An Ephemeris is safe for concurrent use by multiple goroutines once
// constructed: the sample arrays are never written after construction, and
// the internal propagator is only used through its read-only propagation
// path.
type Ephemeris struct {
	els   Elements
	prop  *Propagator
	start time.Time
	step  time.Duration // sampling grid step
	scan  time.Duration // pass-search coarse step this ephemeris serves
	n     int

	// Struct-of-arrays ECEF samples, one entry per grid point.
	px, py, pz []float64
	vx, vy, vz []float64

	// errs is nil while every sample propagated cleanly (the common
	// case); the first propagation error allocates the full slice.
	errs []error

	// exact disables interpolation for this satellite — set by config, or
	// by grid validation when a row's probed error exceeds the bound.
	exact bool

	// maxErrKm is the validated interpolation bound (informational).
	maxErrKm float64
}

// NewEphemeris samples prop's ECEF state covering [start, end] plus one
// scan step of padding (pass scans probe one step past their window end).
// step is the pass-search coarse step the ephemeris serves; a non-positive
// step defaults to the PassPredictor's 30 s. Off-grid queries inside the
// span are answered by validated Hermite interpolation (see
// EphemerisConfig); use NewEphemerisWith with Exact for the
// pre-interpolation exact-fallback behavior.
func NewEphemeris(prop *Propagator, start, end time.Time, step time.Duration) *Ephemeris {
	return NewEphemerisWith(prop, start, end, EphemerisConfig{ScanStep: step})
}

// NewEphemerisWith builds an ephemeris under an explicit configuration: the
// single row of a one-satellite EphemerisGrid.
func NewEphemerisWith(prop *Propagator, start, end time.Time, cfg EphemerisConfig) *Ephemeris {
	g := NewEphemerisGrid([]*Propagator{prop}, start, end, cfg)
	g.PropagateAll()
	return g.Sat(0)
}

// newEphemerisShell sizes an ephemeris without allocating sample storage;
// the caller attaches backing arrays (its own, or an EphemerisGrid's).
func newEphemerisShell(els Elements, prop *Propagator, start, end time.Time, sample time.Duration, cfg EphemerisConfig) *Ephemeris {
	n := 2
	if end.After(start) {
		// Cover [start, end] plus one scan step of padding at sampling
		// resolution, so the scan's one-past-the-end probe stays in-span.
		n = int(end.Add(cfg.ScanStep).Sub(start)/sample) + 2
	}
	return &Ephemeris{
		els:      els,
		prop:     prop,
		start:    start,
		step:     sample,
		scan:     cfg.ScanStep,
		n:        n,
		exact:    cfg.Exact,
		maxErrKm: cfg.MaxInterpErrorKm,
	}
}

// attach points the ephemeris at row-sized windows of a shared component
// buffer laid out [px | py | pz | vx | vy | vz], each component n*rows
// long, this row starting at offset row*n.
func (e *Ephemeris) attach(buf []float64, row, rows int) {
	stride := rows * e.n
	off := row * e.n
	e.px = buf[off : off+e.n : off+e.n]
	e.py = buf[stride+off : stride+off+e.n : stride+off+e.n]
	e.pz = buf[2*stride+off : 2*stride+off+e.n : 2*stride+off+e.n]
	e.vx = buf[3*stride+off : 3*stride+off+e.n : 3*stride+off+e.n]
	e.vy = buf[4*stride+off : 4*stride+off+e.n : 4*stride+off+e.n]
	e.vz = buf[5*stride+off : 5*stride+off+e.n : 5*stride+off+e.n]
}

// propagateRow fills the sample arrays by exact SGP4 propagation. The TEME
// state is rotated with the precomputed per-step sidereal angle — the same
// value GMSTAt would return, so samples stay bit-identical to the direct
// PositionECEF path.
func (e *Ephemeris) propagateRow(thetas []float64) {
	for k := 0; k < e.n; k++ {
		t := e.start.Add(time.Duration(k) * e.step)
		s, err := e.prop.PropagateTo(t)
		if err != nil {
			if e.errs == nil {
				e.errs = make([]error, e.n)
			}
			e.errs[k] = err
			continue
		}
		r, v := TEMEToECEFVelGMST(s.Position, s.Velocity, thetas[k])
		e.px[k], e.py[k], e.pz[k] = r.X, r.Y, r.Z
		e.vx[k], e.vy[k], e.vz[k] = v.X, v.Y, v.Z
	}
}

// validateRow probes interval midpoints against exact SGP4 and returns the
// worst positional error (km). A row whose error exceeds the configured
// bound is demoted to exact fallback, so a decaying or eccentric outlier
// degrades to slower-but-correct rather than violating the bound.
func (e *Ephemeris) validateRow(probes int) float64 {
	if e.exact || e.n < 2 {
		return 0
	}
	worst := 0.0
	stride := (e.n - 1) / probes
	if stride < 1 {
		stride = 1
	}
	for k := 0; k < e.n-1 && probes > 0; k += stride {
		if e.errs != nil && (e.errs[k] != nil || e.errs[k+1] != nil) {
			continue
		}
		mid := e.start.Add(time.Duration(k)*e.step + e.step/2)
		exact, _, err := e.prop.PositionECEF(mid)
		if err != nil {
			continue
		}
		interp, _ := e.hermite(k, float64(e.step/2))
		if d := interp.Sub(exact).Norm(); d > worst {
			worst = d
		}
		probes--
	}
	if worst > e.maxErrKm {
		e.exact = true
	}
	return worst
}

// calibrateSampleStep picks the coarsest sampling step whose probed
// midpoint error stays below the configured bound, starting from the
// default interpolation step and halving (down to the scan step, then down
// to one second) until the probes pass. Probing is cheap — a handful of
// exact propagations per candidate — and runs once per grid, not per
// satellite.
func calibrateSampleStep(props []*Propagator, start, end time.Time, cfg EphemerisConfig) time.Duration {
	step := defaultInterpSampleStep
	if cfg.ScanStep > step {
		step = cfg.ScanStep
	}
	span := end.Sub(start)
	if span <= 0 {
		span = step
	}
	// Probe a spread of satellites: the first, middle and last cover the
	// altitude/eccentricity range of typical constellation orderings.
	var sample []*Propagator
	for _, i := range []int{0, len(props) / 2, len(props) - 1} {
		if i >= 0 && i < len(props) {
			sample = append(sample, props[i])
		}
	}
	for ; step > time.Second; step /= 2 {
		worst := 0.0
		for _, p := range sample {
			for probe := 0; probe < 4; probe++ {
				t0 := start.Add(span * time.Duration(probe) / 4)
				if err := probeHermite(p, t0, step, &worst); err != nil {
					continue
				}
			}
		}
		if worst <= cfg.MaxInterpErrorKm {
			break
		}
	}
	return step
}

// probeHermite measures the Hermite midpoint error over one [t0, t0+step]
// interval of prop's trajectory, folding it into worst.
func probeHermite(prop *Propagator, t0 time.Time, step time.Duration, worst *float64) error {
	r0, v0, err := prop.PositionECEF(t0)
	if err != nil {
		return err
	}
	r1, v1, err := prop.PositionECEF(t0.Add(step))
	if err != nil {
		return err
	}
	exact, _, err := prop.PositionECEF(t0.Add(step / 2))
	if err != nil {
		return err
	}
	interp, _ := hermitePoint(r0, v0, r1, v1, 0.5, step.Seconds())
	if d := interp.Sub(exact).Norm(); d > *worst {
		*worst = d
	}
	return nil
}

// Elements returns the element set the ephemeris was sampled from.
func (e *Ephemeris) Elements() Elements { return e.els }

// Step returns the sampling grid step.
func (e *Ephemeris) Step() time.Duration { return e.step }

// ScanStep returns the pass-search coarse step the ephemeris serves.
// Interpolated grids may sample coarser than they scan: scan queries
// between samples are answered by the bounded-error interpolant.
func (e *Ephemeris) ScanStep() time.Duration { return e.scan }

// Exact reports whether off-grid queries fall back to exact SGP4 rather
// than interpolation.
func (e *Ephemeris) Exact() bool { return e.exact }

// MaxInterpErrorKm returns the configured interpolation error bound.
func (e *Ephemeris) MaxInterpErrorKm() float64 { return e.maxErrKm }

// Span returns the first and last sampled instants.
func (e *Ephemeris) Span() (start, end time.Time) {
	return e.start, e.start.Add(time.Duration(e.n-1) * e.step)
}

// queryKind classifies how a state query was answered, for telemetry.
type queryKind uint8

const (
	queryGridHit queryKind = iota
	queryInterp
	queryExact
)

// sample returns grid point k.
func (e *Ephemeris) sample(k int) (r, v Vec3, err error) {
	if e.errs != nil && e.errs[k] != nil {
		return Vec3{}, Vec3{}, e.errs[k]
	}
	return Vec3{e.px[k], e.py[k], e.pz[k]}, Vec3{e.vx[k], e.vy[k], e.vz[k]}, nil
}

// state answers a query without touching telemetry, reporting how it was
// answered so callers (PositionECEF per call, PassPredictor batched per
// scan) can account for it.
//
// Grid hits are detected by index arithmetic — one division yields both
// the bracketing index and the remainder — rather than a separate modulo,
// and the contract is strict: only a remainder of exactly zero is a hit,
// so a query even one nanosecond off-grid is interpolated (or, in exact
// mode, propagated), never snapped to the nearest sample. This holds for
// any step, including ones that do not divide the span.
func (e *Ephemeris) state(t time.Time) (r, v Vec3, err error, kind queryKind) {
	d := t.Sub(e.start)
	if d >= 0 {
		k := int(d / e.step)
		if rem := d - time.Duration(k)*e.step; rem == 0 {
			if k < e.n {
				r, v, err = e.sample(k)
				return r, v, err, queryGridHit
			}
		} else if !e.exact && k+1 < e.n {
			if e.errs == nil || (e.errs[k] == nil && e.errs[k+1] == nil) {
				r, v = e.hermite(k, float64(rem))
				return r, v, nil, queryInterp
			}
		}
	}
	r, v, err = e.prop.PositionECEF(t)
	return r, v, err, queryExact
}

// position is state without the velocity interpolation — the pass scan and
// AOS/LOS bisection compare elevations only, and skipping the velocity
// Hermite halves the interpolation arithmetic on that path.
func (e *Ephemeris) position(t time.Time) (r Vec3, err error, kind queryKind) {
	return e.positionOff(t.Sub(e.start))
}

// positionOff is position addressed by the offset from the ephemeris start.
// The pass scan visits instants of the form start + k·step and maintains
// the offset with integer arithmetic, skipping a time.Time construction
// and subtraction per scanned step.
func (e *Ephemeris) positionOff(d time.Duration) (r Vec3, err error, kind queryKind) {
	if d >= 0 {
		k := int(d / e.step)
		if rem := d - time.Duration(k)*e.step; rem == 0 {
			if k < e.n {
				if e.errs != nil && e.errs[k] != nil {
					return Vec3{}, e.errs[k], queryGridHit
				}
				return Vec3{e.px[k], e.py[k], e.pz[k]}, nil, queryGridHit
			}
		} else if !e.exact && k+1 < e.n {
			if e.errs == nil || (e.errs[k] == nil && e.errs[k+1] == nil) {
				return e.hermitePos(k, float64(rem)), nil, queryInterp
			}
		}
	}
	r, _, err = e.prop.PositionECEF(e.start.Add(d))
	return r, err, queryExact
}

// hermite evaluates the cubic Hermite interpolant on [k, k+1] at remainder
// rem nanoseconds past sample k. With positions in km and velocities in
// km/s the interpolant is free: both endpoint derivatives are already
// stored. ECEF is a rotating frame, but the stored velocities are ECEF
// derivatives of the ECEF positions, so the interpolant is consistent.
func (e *Ephemeris) hermite(k int, remNs float64) (r, v Vec3) {
	h := float64(e.step) / 1e9 // step in seconds
	s := remNs / float64(e.step)
	r0 := Vec3{e.px[k], e.py[k], e.pz[k]}
	v0 := Vec3{e.vx[k], e.vy[k], e.vz[k]}
	r1 := Vec3{e.px[k+1], e.py[k+1], e.pz[k+1]}
	v1 := Vec3{e.vx[k+1], e.vy[k+1], e.vz[k+1]}
	return hermitePoint(r0, v0, r1, v1, s, h)
}

// hermitePos is hermite restricted to position.
func (e *Ephemeris) hermitePos(k int, remNs float64) Vec3 {
	h := float64(e.step) / 1e9
	s := remNs / float64(e.step)
	s2 := s * s
	s3 := s2 * s
	h00 := 2*s3 - 3*s2 + 1
	h10 := (s3 - 2*s2 + s) * h
	h01 := -2*s3 + 3*s2
	h11 := (s3 - s2) * h
	return Vec3{
		h00*e.px[k] + h10*e.vx[k] + h01*e.px[k+1] + h11*e.vx[k+1],
		h00*e.py[k] + h10*e.vy[k] + h01*e.py[k+1] + h11*e.vy[k+1],
		h00*e.pz[k] + h10*e.vz[k] + h01*e.pz[k+1] + h11*e.vz[k+1],
	}
}

// hermitePoint evaluates the cubic Hermite interpolant and its derivative
// at normalized position s ∈ [0, 1] over an interval of h seconds.
func hermitePoint(r0, v0, r1, v1 Vec3, s, h float64) (r, v Vec3) {
	s2 := s * s
	s3 := s2 * s
	h00 := 2*s3 - 3*s2 + 1
	h10 := (s3 - 2*s2 + s) * h
	h01 := -2*s3 + 3*s2
	h11 := (s3 - s2) * h
	r = Vec3{
		h00*r0.X + h10*v0.X + h01*r1.X + h11*v1.X,
		h00*r0.Y + h10*v0.Y + h01*r1.Y + h11*v1.Y,
		h00*r0.Z + h10*v0.Z + h01*r1.Z + h11*v1.Z,
	}
	d00 := (6*s2 - 6*s) / h
	d10 := 3*s2 - 4*s + 1
	d01 := (6*s - 6*s2) / h
	d11 := 3*s2 - 2*s
	v = Vec3{
		d00*r0.X + d10*v0.X + d01*r1.X + d11*v1.X,
		d00*r0.Y + d10*v0.Y + d01*r1.Y + d11*v1.Y,
		d00*r0.Z + d10*v0.Z + d01*r1.Z + d11*v1.Z,
	}
	return r, v
}

// PositionECEF implements StateSource. Queries on the sampling grid are
// served from the shared samples; off-grid instants inside the span are
// answered by bounded-error Hermite interpolation (unless the ephemeris is
// exact, in which case they propagate SGP4); queries outside the span
// always propagate.
func (e *Ephemeris) PositionECEF(t time.Time) (Vec3, Vec3, error) {
	r, v, err, kind := e.state(t)
	if m := metrics.Load(); m != nil {
		switch kind {
		case queryGridHit:
			m.ephHits.Inc()
		case queryInterp:
			m.ephInterps.Inc()
		default:
			m.ephMisses.Inc()
		}
	}
	return r, v, err
}

// Look returns the look angles from site to the satellite at t.
func (e *Ephemeris) Look(site Geodetic, t time.Time) (LookAngles, error) {
	r, v, err := e.PositionECEF(t)
	if err != nil {
		return LookAngles{}, err
	}
	return Look(site, r, v), nil
}

// ValidateInterp probes midpoints of the grid against exact SGP4 and
// returns the worst observed positional error in km (zero for exact-mode
// grids). It demotes the ephemeris to exact fallback when the bound is
// violated.
func (e *Ephemeris) ValidateInterp(probes int) float64 {
	if probes <= 0 {
		probes = 4
	}
	return e.validateRow(probes)
}

// NewEphemerisPredictor builds a PassPredictor whose coarse scan runs at
// the ephemeris scan step: grid-aligned queries are cache hits and
// everything between samples is served by the bounded-error interpolant.
func NewEphemerisPredictor(e *Ephemeris) *PassPredictor {
	pp := NewPassPredictorFrom(e)
	pp.CoarseStep = e.ScanStep()
	return pp
}

// interpErrorBoundElevationRad converts a positional error bound to a
// conservative elevation-angle error at the given slant range: the worst
// case puts the full positional error perpendicular to the line of sight.
func interpErrorBoundElevationRad(errKm, rangeKm float64) float64 {
	if rangeKm <= 0 {
		return math.Pi
	}
	return math.Asin(math.Min(1, errKm/rangeKm))
}
