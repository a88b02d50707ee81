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
	buf    []float64 // [px | py | pz | vx | vy | vz], each sats×steps
	thetas []float64 // per-step GMST, shared by all rows
}

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

// Sat returns the shared ephemeris view of satellite i. The view aliases
// the grid's sample arrays — no copy — and is only valid for queries after
// Propagate(i) (or PropagateAll) has run.
func (g *EphemerisGrid) Sat(i int) *Ephemeris { return &g.views[i] }

// Propagate fills row i by exact SGP4 propagation and, in interpolated
// mode, probes the row's midpoint error against exact SGP4, demoting the
// row to exact fallback if it exceeds the configured bound. Safe to call
// concurrently for distinct rows.
func (g *EphemerisGrid) Propagate(i int) {
	e := &g.views[i]
	e.propagateRow(g.thetas)
	if !g.cfg.Exact {
		e.validateRow(2)
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

// Finish releases construction scratch once every row has been
// propagated. Further Propagate calls are invalid after Finish.
func (g *EphemerisGrid) Finish() {
	if g.thetas != nil {
		scratch := g.thetas[:0]
		gmstPool.Put(&scratch)
		g.thetas = nil
	}
}

// ExactRows counts rows that fell back to exact mode — configured, or
// demoted because their probed interpolation error exceeded the bound.
func (g *EphemerisGrid) ExactRows() int {
	n := 0
	for i := range g.views {
		if g.views[i].exact {
			n++
		}
	}
	return n
}
