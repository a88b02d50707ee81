package orbit

import (
	"sync"
	"time"
)

// EphemerisGrid batch-samples a whole constellation on one shared time
// grid. Sample storage is struct-of-arrays: six contiguous []float64
// component arrays sized sats×steps, so a 10k-satellite grid costs six
// allocations (plus one Ephemeris view per satellite) instead of
// thousands of per-satellite slices, and the Greenwich sidereal angles —
// which depend only on the step, not the satellite — are computed once
// per step and shared by every row.
//
// Construction allocates and calibrates; the rows themselves are filled by
// Propagate, which is safe to fan out across workers as long as each row
// index is propagated exactly once (the campaign worker pools already
// guarantee index-addressed single ownership). PropagateAll fills the grid
// serially for callers without a pool.
//
// Once propagated, a grid and its Sat views are safe for concurrent reads
// from any number of goroutines.
type EphemerisGrid struct {
	start time.Time
	step  time.Duration
	cfg   EphemerisConfig

	views  []Ephemeris
	n      int       // samples per row
	buf    []float64 // [px | py | pz | vx | vy | vz], each sats×steps
	thetas []float64 // per-step GMST, shared by all rows

	// teme holds the rows' TEME samples: kept by Propagate after Record,
	// read by Propagate instead of SGP4 after Rotate.
	teme   *Trajectory
	rotate bool
}

// Trajectory is a grid's TEME samples: SGP4's output for every row at
// every step, before the grid rotates each sample into the Earth-fixed
// frame. SGP4 reads an element set's epoch only as each instant's offset
// from it, so four things fix the samples: every element field but the
// epoch, each row's start − epoch offset, the sample step and the sample
// count. A grid of the same fleet at another start, its element sets
// epoched at that start, samples the very same states, and Rotate fills
// it from them without SGP4. A Trajectory is read-only once a grid
// returned it, and safe for concurrent reads.
type Trajectory struct {
	rows, n int
	buf     []float64 // [x | y | z | vx | vy | vz], each rows×n
}

// Bytes returns the size of the trajectory's sample storage.
func (t *Trajectory) Bytes() int64 { return 8 * int64(len(t.buf)) }

// gmstPool recycles the per-step sidereal-angle scratch column across grid
// constructions: campaigns build one grid per constellation with identical
// spans, so the buffer is reused rather than reallocated per grid.
var gmstPool = sync.Pool{New: func() any { return new([]float64) }}

// NewEphemerisGrid allocates a grid covering [start, end] (plus scan-step
// padding) for every propagator. In interpolated mode (the default) the
// sample step is calibrated once against cfg.MaxInterpErrorKm by probing a
// spread of the constellation's satellites, so the grid samples as
// coarsely as the error bound allows.
func NewEphemerisGrid(props []*Propagator, start, end time.Time, cfg EphemerisConfig) *EphemerisGrid {
	cfg.setDefaults()
	sample := cfg.SampleStep
	if sample <= 0 {
		if cfg.Exact || len(props) == 0 {
			sample = cfg.ScanStep
		} else {
			sample = calibrateSampleStep(props, start, end, cfg)
		}
	}
	cfg.SampleStep = sample

	g := &EphemerisGrid{start: start, step: sample, cfg: cfg}
	g.views = make([]Ephemeris, len(props))
	n := 0
	for i, p := range props {
		e := newEphemerisShell(p.Elements(), p.Clone(), start, end, sample, cfg)
		g.views[i] = *e
		n = e.n
	}
	g.n = n
	if len(props) == 0 {
		return g
	}
	g.buf = make([]float64, 6*len(props)*n)
	for i := range g.views {
		g.views[i].attach(g.buf, i, len(props))
	}

	scratch := gmstPool.Get().(*[]float64)
	if cap(*scratch) < n {
		*scratch = make([]float64, n)
	}
	g.thetas = (*scratch)[:n]
	for k := 0; k < n; k++ {
		g.thetas[k] = GMSTAt(start.Add(time.Duration(k) * sample))
	}
	return g
}

// Sats returns the number of satellites in the grid.
func (g *EphemerisGrid) Sats() int { return len(g.views) }

// Step returns the calibrated sampling step.
func (g *EphemerisGrid) Step() time.Duration { return g.step }

// ScanStep returns the pass-search coarse step the grid serves.
func (g *EphemerisGrid) ScanStep() time.Duration { return g.cfg.ScanStep }

// Steps returns the number of samples in each row.
func (g *EphemerisGrid) Steps() int { return g.n }

// Sat returns the shared ephemeris view of satellite i. The view aliases
// the grid's sample arrays — no copy — and is only valid for queries after
// Propagate(i) (or PropagateAll) has run.
func (g *EphemerisGrid) Sat(i int) *Ephemeris { return &g.views[i] }

// Record makes Propagate keep every row's TEME samples, for Trajectory
// to return. Call it before the first Propagate.
func (g *EphemerisGrid) Record() {
	g.teme = &Trajectory{rows: len(g.views), n: g.n, buf: make([]float64, 6*len(g.views)*g.n)}
}

// Rotate makes Propagate fill each row by rotating t's TEME samples with
// the grid's own sidereal angles instead of running SGP4: when t is this
// grid's trajectory (see Trajectory), the rows get the bits SGP4 would
// give them. Call it before the first Propagate. It panics when t's shape
// is not the grid's.
func (g *EphemerisGrid) Rotate(t *Trajectory) {
	if t.rows != len(g.views) || t.n != g.n {
		panic("orbit: trajectory shape differs from the grid's")
	}
	g.teme, g.rotate = t, true
}

// Trajectory returns the TEME samples Record kept, once every row has
// propagated and before Finish, or nil when the grid did not record or a
// row had a propagation error.
func (g *EphemerisGrid) Trajectory() *Trajectory {
	if g.rotate || g.teme == nil {
		return nil
	}
	for i := range g.views {
		if g.views[i].errs != nil {
			return nil
		}
	}
	return g.teme
}

// Propagate fills row i by exact SGP4 propagation (or, after Rotate, from
// held TEME samples) and, in interpolated mode, probes the row's midpoint
// error against exact SGP4, demoting the row to exact fallback if it
// exceeds the configured bound, and computes the row's motion bound (see
// Ephemeris.MotionBound). Safe to call concurrently for distinct rows.
func (g *EphemerisGrid) Propagate(i int) {
	e := &g.views[i]
	var teme stateRow
	if g.teme != nil {
		teme = newStateRow(g.teme.buf, i, g.teme.rows, g.teme.n)
	}
	if g.rotate {
		e.rotateRow(g.thetas, teme)
	} else {
		e.propagateRow(g.thetas, teme)
	}
	if !g.cfg.Exact {
		e.validateRow(2)
		e.bound()
	}
}

// PropagateAll fills every row serially and releases construction
// scratch. Campaigns that fan Propagate across a worker pool should call
// Finish afterwards instead.
func (g *EphemerisGrid) PropagateAll() {
	for i := range g.views {
		g.Propagate(i)
	}
	g.Finish()
}

// Finish releases construction scratch, and the grid's hold on its TEME
// samples, once every row has been propagated. Further Propagate calls
// are invalid after Finish.
func (g *EphemerisGrid) Finish() {
	if g.thetas != nil {
		scratch := g.thetas[:0]
		gmstPool.Put(&scratch)
		g.thetas = nil
	}
	g.teme, g.rotate = nil, false
}

// Bytes returns the size of the grid's sample storage, which dominates
// its memory.
func (g *EphemerisGrid) Bytes() int64 { return 8 * int64(len(g.buf)) }
