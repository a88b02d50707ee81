package orbit

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Pass is one contact window between a satellite and a ground site: the
// span during which the satellite is above the site's minimum elevation.
type Pass struct {
	NoradID int
	Name    string

	AOS time.Time // acquisition of signal (rise above MinElevation)
	LOS time.Time // loss of signal
	TCA time.Time // time of closest approach (max elevation)

	MaxElevation float64 // rad at TCA
	AOSAzimuth   float64 // rad
	LOSAzimuth   float64 // rad
	MinRangeKm   float64 // slant range at TCA
}

// Duration returns the length of the pass.
func (p Pass) Duration() time.Duration { return p.LOS.Sub(p.AOS) }

// MaxElevationDeg returns the peak elevation in degrees.
func (p Pass) MaxElevationDeg() float64 { return p.MaxElevation * rad2Deg }

// String implements fmt.Stringer.
func (p Pass) String() string {
	return fmt.Sprintf("%s AOS=%s LOS=%s dur=%s maxEl=%.1f° minRange=%.0fkm",
		p.Name, p.AOS.Format(time.RFC3339), p.LOS.Format(time.RFC3339),
		p.Duration().Round(time.Second), p.MaxElevationDeg(), p.MinRangeKm)
}

// PassPredictor finds contact windows for one satellite over ground sites.
type PassPredictor struct {
	src StateSource
	eph *Ephemeris // non-nil when src is an Ephemeris: fast query path

	// CoarseStep is the scan step used to bracket horizon crossings.
	// The default of 30 s cannot skip a LEO pass, whose above-horizon
	// durations are several minutes even at low peak elevation.
	CoarseStep time.Duration

	// Refine is the bisection tolerance for AOS/LOS times.
	Refine time.Duration
}

// NewPassPredictor wraps an SGP4 propagator with pass-search defaults.
func NewPassPredictor(p *Propagator) *PassPredictor {
	return NewPassPredictorFrom(p)
}

// NewPassPredictorFrom wraps any state source — a raw propagator or a shared
// Ephemeris — with pass-search defaults.
func NewPassPredictorFrom(src StateSource) *PassPredictor {
	pp := &PassPredictor{CoarseStep: 30 * time.Second, Refine: 500 * time.Millisecond}
	pp.SetSource(src)
	return pp
}

// SetSource repoints the predictor at another state source, so one
// predictor can sweep a constellation (one satellite after another)
// without a per-satellite allocation.
func (pp *PassPredictor) SetSource(src StateSource) {
	pp.src = src
	pp.eph, _ = src.(*Ephemeris)
}

// scan bundles the per-search state of one pass search: the cached
// observer frame, the precomputed mask sines, the cursor over the coarse
// scan steps, the motion-bound skip, and — when the source is an Ephemeris
// — the telemetry pointer loaded once for the whole search instead of per
// query, with counts accumulated locally and flushed in one batch at the
// end.
type scan struct {
	pp    *PassPredictor
	frame Observer
	minEl float64
	sinEl float64 // sin(minEl)
	sin2  float64 // sin²(minEl)

	// Scan instants are start + k·step for k in [0, kMax] (one step past
	// the window end so a pass in progress at end is still detected); the
	// LOS walk stops at kEnd, the last instant inside the window. d0 is
	// the offset of the scan start from the ephemeris start (meaningful
	// when pp.eph != nil), so scan instants are addressed by integer
	// offset arithmetic instead of a time.Time construction per step.
	start, end time.Time
	step       time.Duration
	d0         time.Duration
	kMax, kEnd int64

	// nextPass's cursor: the last probed step k, whether it was above the
	// mask, and how many steps after it are known to be below.
	k         int64
	prevAbove bool
	gap       int64

	// The motion-bound skip (see gapAfter), on when the row has a bound
	// and the mask is not negative: up is the site's geodetic normal, psi
	// the half-angle of the cone around it that holds every in-view
	// direction (with skipMarginRad), turn the most the row's direction
	// turns in one step, spanOff the offset of the row's last sample.
	skip      bool
	up        Vec3
	psi, turn float64
	spanOff   time.Duration

	m                     *orbitMetrics
	hits, interps, exacts uint64
}

// skipMarginRad widens the skip's in-view cone, so the rounding of the
// angles it compares (around 1e-15 rad) can never make it skip a step the
// exact predicate accepts.
const skipMarginRad = 1e-6

// begin sets up the search of [start, end] at the predictor's coarse step
// and probes the first scan step. end must be after start.
func (pp *PassPredictor) begin(site Geodetic, start, end time.Time, minEl float64) scan {
	step := pp.CoarseStep
	if step <= 0 {
		step = 30 * time.Second
	}
	s := math.Sin(minEl)
	sc := scan{pp: pp, frame: NewObserver(site), minEl: minEl, sinEl: s, sin2: s * s,
		start: start, end: end, step: step,
		kMax: int64(end.Add(step).Sub(start) / step),
		kEnd: int64(end.Sub(start) / step),
	}
	if e := pp.eph; e != nil {
		sc.m = metrics.Load()
		sc.d0 = start.Sub(e.start)
		rhoMax, omegaMax, ok := e.MotionBound()
		sc.up = Vec3{sc.frame.cosLat * sc.frame.cosLon, sc.frame.cosLat * sc.frame.sinLon, sc.frame.sinLat}
		if d := sc.up.Dot(sc.frame.rObs); ok && minEl >= 0 && d > 0 {
			sc.skip = true
			sc.psi = math.Acos(math.Min(1, d/rhoMax)) + skipMarginRad
			sc.turn = omegaMax * step.Seconds()
			sc.spanOff = time.Duration(e.n-1) * e.step
		}
	}
	sc.prevAbove, sc.gap = sc.probe(0)
	return sc
}

// flush publishes the batched ephemeris telemetry.
func (sc *scan) flush() {
	if sc.m == nil {
		return
	}
	if sc.hits > 0 {
		sc.m.ephHits.Add(sc.hits)
	}
	if sc.interps > 0 {
		sc.m.ephInterps.Add(sc.interps)
	}
	if sc.exacts > 0 {
		sc.m.ephMisses.Add(sc.exacts)
	}
	sc.hits, sc.interps, sc.exacts = 0, 0, 0
}

// count records how an ephemeris query was answered.
func (sc *scan) count(kind queryKind) {
	switch kind {
	case queryGridHit:
		sc.hits++
	case queryInterp:
		sc.interps++
	default:
		sc.exacts++
	}
}

// above reports whether the satellite is at or above the mask at t.
// Propagation errors read as below-mask, so a decayed satellite simply
// stops producing passes. On the ephemeris path this touches neither the
// telemetry pointer nor any trigonometry: position is interpolated (or
// read off the grid) and compared against the mask with dot products only.
func (sc *scan) above(t time.Time) bool {
	if e := sc.pp.eph; e != nil {
		r, err, kind := e.position(t)
		sc.count(kind)
		if err != nil {
			return false
		}
		return sc.frame.aboveMask(r, sc.sinEl, sc.sin2)
	}
	r, _, err := sc.pp.src.PositionECEF(t)
	if err != nil {
		return false
	}
	return sc.frame.aboveMask(r, sc.sinEl, sc.sin2)
}

// probe is above at scan step k, addressed by index so the ephemeris path
// runs on integer offsets. Below the mask it also returns how many of the
// following steps the row's motion bound proves below it too (gapAfter).
func (sc *scan) probe(k int64) (above bool, gap int64) {
	if e := sc.pp.eph; e != nil {
		r, err, kind := e.positionOff(sc.d0 + time.Duration(k)*sc.step)
		sc.count(kind)
		if err != nil {
			return false, 0
		}
		if sc.frame.aboveMask(r, sc.sinEl, sc.sin2) {
			return true, 0
		}
		return false, sc.gapAfter(k, r)
	}
	return sc.above(sc.start.Add(time.Duration(k) * sc.step)), 0
}

// gapAfter returns how many scan steps after step k, where the satellite
// at r is below the mask, are below the mask too by the row's motion bound
// (Ephemeris.MotionBound).
//
// With a mask ε ≥ 0 the predicate accepts only zenith ≥ 0, that is
// n̂·r ≥ d = n̂·r_obs for the site's geodetic normal n̂. With d > 0 and
// |r| ≤ ρ_max, an accepted r has cos∠(n̂, r) = n̂·r/|r| ≥ d/ρ_max: it lies
// within ψ = arccos(d/ρ_max) of n̂. At a direction θ > ψ from n̂ the row,
// turning at most ω_max per second, needs (θ − ψ)/ω_max seconds to reach
// that cone, so no step closer than (θ − ψ)/(ω_max·step) can be above the
// mask. The bound holds only for instants inside the row's span, so the
// step itself and every skipped step must lie there.
func (sc *scan) gapAfter(k int64, r Vec3) int64 {
	off := sc.d0 + time.Duration(k)*sc.step
	if !sc.skip || off < 0 || off > sc.spanOff {
		return 0
	}
	theta := math.Acos(math.Max(-1, sc.up.Dot(r)/r.Norm()))
	steps := math.Min((theta-sc.psi)/sc.turn, float64((sc.spanOff-off)/sc.step))
	if !(steps >= 1) {
		return 0
	}
	return int64(steps)
}

// elRange returns the elevation and slant range at t — the TCA sweep's
// per-sample needs — skipping the azimuth and range-rate arithmetic (and
// the velocity interpolation on the ephemeris path). Bit-identical to the
// corresponding fields of look.
func (sc *scan) elRange(t time.Time) (el, rangeKm float64, err error) {
	var r Vec3
	if e := sc.pp.eph; e != nil {
		var kind queryKind
		r, err, kind = e.position(t)
		sc.count(kind)
	} else {
		r, _, err = sc.pp.src.PositionECEF(t)
	}
	if err != nil {
		return 0, 0, err
	}
	el, rangeKm = sc.frame.elRange(r)
	return el, rangeKm, nil
}

// look returns full look angles at t.
func (sc *scan) look(t time.Time) (LookAngles, error) {
	if e := sc.pp.eph; e != nil {
		r, v, err, kind := e.state(t)
		sc.count(kind)
		if err != nil {
			return LookAngles{}, err
		}
		return sc.frame.Look(r, v), nil
	}
	r, v, err := sc.pp.src.PositionECEF(t)
	if err != nil {
		return LookAngles{}, err
	}
	return sc.frame.Look(r, v), nil
}

// LookAt returns full look angles from the site at time t.
func (pp *PassPredictor) LookAt(site Geodetic, t time.Time) (LookAngles, error) {
	r, v, err := pp.src.PositionECEF(t)
	if err != nil {
		return LookAngles{}, err
	}
	return NewObserver(site).Look(r, v), nil
}

// Passes returns every contact window with max elevation above minElevation
// (radians) between start and end, in chronological order.
func (pp *PassPredictor) Passes(site Geodetic, start, end time.Time, minElevation float64) []Pass {
	return pp.PassesAppend(nil, site, start, end, minElevation)
}

// PassesAppend appends every contact window between start and end to dst
// and returns the extended slice, in chronological order per call. Callers
// running many searches (every satellite of a constellation, every site of
// a campaign) pass a reused buffer so that steady-state pass search
// performs zero allocations per search.
//
// The coarse scan visits only instants of the form start + k·step. When
// the predictor runs over an Ephemeris, scan instants are answered from
// the shared samples — directly when they land on the sampling grid
// (located by precomputed index arithmetic, not per-query modulo), by
// bounded-error Hermite interpolation otherwise — and the telemetry
// registry is consulted once per search rather than once per query. A row
// with a motion bound lets the scan jump over steps that cannot be above a
// non-negative mask (see gapAfter); every skipped step is one the predicate
// would have rejected, so the passes are those of a step-by-step scan.
func (pp *PassPredictor) PassesAppend(dst []Pass, site Geodetic, start, end time.Time, minElevation float64) []Pass {
	if !end.After(start) {
		return dst
	}
	sc := pp.begin(site, start, end, minElevation)
	defer sc.flush()

	base := len(dst)
	for {
		aos, los, ok := sc.nextPass()
		if !ok {
			break
		}
		if pass, ok := sc.buildPass(aos, los); ok {
			dst = append(dst, pass)
		}
	}
	// The scan emits passes chronologically; insertion sort (a no-op pass
	// in the common sorted case) keeps the contract without the closure
	// allocation of sort.Slice.
	for i := base + 1; i < len(dst); i++ {
		for j := i; j > base && dst[j].AOS.Before(dst[j-1].AOS); j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

// WindowsAppend appends to dst the [AOS, LOS] window of every pass
// PassesAppend would return for the same arguments, in the same order, and
// returns the extended slice. It runs the same scan and bisection but
// keeps a pass as soon as one of buildPass's samples reaches the mask,
// without sweeping the rest for TCA, azimuths and range, so callers that
// read only AOS and LOS pay for nothing else.
func (pp *PassPredictor) WindowsAppend(dst []Window, site Geodetic, start, end time.Time, minElevation float64) []Window {
	if !end.After(start) {
		return dst
	}
	sc := pp.begin(site, start, end, minElevation)
	defer sc.flush()

	for {
		aos, los, ok := sc.nextPass()
		if !ok {
			break
		}
		if sc.reachesMask(aos, los) {
			dst = append(dst, Window{Start: aos, End: los})
		}
	}
	return dst
}

// nextPass advances the coarse scan to its next rising edge and returns
// the refined AOS and LOS of that candidate pass; ok is false once the scan
// is done. A rising edge is bracketed by a step known to be below the mask
// — probed, or skipped by the motion bound — so AOS bisects from the step
// before it, and the LOS walk, the truncation at the window end and the
// resume after LOS are those of a step-by-step scan.
func (sc *scan) nextPass() (aos, los time.Time, ok bool) {
	for sc.k += 1 + sc.gap; sc.k <= sc.kMax; sc.k += 1 + sc.gap {
		above, gap := sc.probe(sc.k)
		sc.gap = gap
		if sc.prevAbove || !above {
			sc.prevAbove = above
			continue
		}
		// Rising edge bracketed in (k-1, k]: refine AOS, then walk
		// forward from the grid point to find LOS.
		t := sc.start.Add(time.Duration(sc.k) * sc.step)
		aos = sc.bisect(t.Add(-sc.step), t, true)
		los = sc.findLOS(sc.k)
		// Resume scanning at the first grid point after LOS, but never
		// move the cursor backwards: a pass shorter than the scan step
		// can refine to an LOS at or before t, and jumping back would
		// re-detect the same rising edge forever.
		if next := int64(los.Sub(sc.start)/sc.step) + 1; next > sc.k {
			sc.k = next
			if sc.k <= sc.kMax {
				above, sc.gap = sc.probe(sc.k)
			}
		}
		sc.prevAbove = above
		return aos, los, true
	}
	return time.Time{}, time.Time{}, false
}

// findLOS walks grid points forward from the rising-edge step fromK until
// elevation drops below the mask, then bisects the falling edge. A pass
// still up at the last in-window step kEnd extends beyond the search
// window and is truncated at its end.
func (sc *scan) findLOS(fromK int64) time.Time {
	for k := fromK + 1; k <= sc.kEnd; k++ {
		if above, _ := sc.probe(k); !above {
			t := sc.start.Add(time.Duration(k) * sc.step)
			return sc.bisect(t.Add(-sc.step), t, false)
		}
	}
	return sc.end
}

// bisect refines a horizon crossing bracketed by [lo, hi]. rising selects
// the crossing direction.
func (sc *scan) bisect(lo, hi time.Time, rising bool) time.Time {
	tol := sc.pp.Refine
	if tol <= 0 {
		tol = time.Second
	}
	for hi.Sub(lo) > tol {
		mid := lo.Add(hi.Sub(lo) / 2)
		if sc.above(mid) == rising {
			// For a rising edge, "above" means the crossing is earlier.
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo.Add(hi.Sub(lo) / 2)
}

// buildPass fills in TCA, azimuths and peak stats by sampling the window.
// The AOS/LOS look angles double as the first and last samples of the TCA
// scan, so the window endpoints are evaluated exactly once.
func (sc *scan) buildPass(aos, los time.Time) (Pass, bool) {
	if !los.After(aos) {
		return Pass{}, false
	}
	els := sc.pp.src.Elements()
	pass := Pass{
		NoradID:      els.NoradID,
		Name:         els.Name,
		AOS:          aos,
		LOS:          los,
		MaxElevation: -twoPi,
		MinRangeKm:   1e12,
	}
	laAOS, errAOS := sc.look(aos)
	laLOS, errLOS := sc.look(los)
	if errAOS == nil {
		pass.AOSAzimuth = laAOS.Azimuth
	}
	if errLOS == nil {
		pass.LOSAzimuth = laLOS.Azimuth
	}
	// Sample 64 points across the window for TCA; LEO elevation profiles
	// are unimodal, so dense sampling is accurate to dur/64 which is
	// seconds-level for a 10-minute pass. Only elevation and range are
	// compared, so the sweep skips the azimuth/range-rate arithmetic.
	const samples = 64
	dur := los.Sub(aos)
	for i := 0; i <= samples; i++ {
		var el, rangeKm float64
		var err error
		switch i {
		case 0:
			el, rangeKm, err = laAOS.Elevation, laAOS.RangeKm, errAOS
		case samples:
			el, rangeKm, err = laLOS.Elevation, laLOS.RangeKm, errLOS
		default:
			el, rangeKm, err = sc.elRange(aos.Add(dur * time.Duration(i) / samples))
		}
		if err != nil {
			continue
		}
		if el > pass.MaxElevation {
			pass.MaxElevation = el
			pass.TCA = aos.Add(dur * time.Duration(i) / samples)
		}
		if rangeKm < pass.MinRangeKm {
			pass.MinRangeKm = rangeKm
		}
	}
	return pass, pass.MaxElevation >= sc.minEl
}

// reachesMask is buildPass's keep decision alone: whether the window is
// non-empty and one of its 65 samples is at or above the mask. elRange's
// elevation is bit-identical to look's, so the answer is buildPass's; it
// stops at the first sample that passes.
func (sc *scan) reachesMask(aos, los time.Time) bool {
	if !los.After(aos) {
		return false
	}
	const samples = 64
	dur := los.Sub(aos)
	for i := 0; i <= samples; i++ {
		if el, _, err := sc.elRange(aos.Add(dur * time.Duration(i) / samples)); err == nil && el >= sc.minEl {
			return true
		}
	}
	return false
}

// windowBufPool recycles window scratch for the package's own sweep
// helpers (DailyVisibleDuration), whose window lists are consumed before
// returning.
var windowBufPool = sync.Pool{New: func() any { s := make([]Window, 0, 32); return &s }}

// DailyVisibleDuration sums the above-mask time for the satellite over the
// site between start and end, returning the mean per-day duration. This is
// the "theoretical presence duration" of Figure 3a.
func (pp *PassPredictor) DailyVisibleDuration(site Geodetic, start, end time.Time, minElevation float64) time.Duration {
	buf := windowBufPool.Get().(*[]Window)
	windows := pp.WindowsAppend((*buf)[:0], site, start, end, minElevation)
	total := TotalDuration(windows)
	*buf = windows[:0]
	windowBufPool.Put(buf)
	days := end.Sub(start).Hours() / 24
	if days <= 0 {
		return 0
	}
	return time.Duration(float64(total) / days)
}

// Window is one time interval: a pass's [AOS, LOS], a merged coverage
// interval, an outage.
type Window struct {
	Start, End time.Time
}

// Duration returns the window length.
func (w Window) Duration() time.Duration { return w.End.Sub(w.Start) }

// Window returns the pass's [AOS, LOS] window.
func (p Pass) Window() Window { return Window{Start: p.AOS, End: p.LOS} }

// MergeWindows returns the union of the windows — e.g. the pass windows of
// a constellation's satellites — as a minimal sorted set of non-overlapping
// intervals. The input is not reordered.
func MergeWindows(windows []Window) []Window {
	if len(windows) == 0 {
		return nil
	}
	ws := append([]Window(nil), windows...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].Start.Before(ws[j].Start) })
	merged := ws[:1]
	for _, w := range ws[1:] {
		last := &merged[len(merged)-1]
		if !w.Start.After(last.End) {
			if w.End.After(last.End) {
				last.End = w.End
			}
			continue
		}
		merged = append(merged, w)
	}
	return merged
}

// TotalDuration sums the durations of a set of windows.
func TotalDuration(ws []Window) time.Duration {
	var total time.Duration
	for _, w := range ws {
		total += w.Duration()
	}
	return total
}

// Gaps returns the intervals between consecutive windows — the paper's
// "contact intervals" of Figure 4b.
func Gaps(ws []Window) []time.Duration {
	if len(ws) < 2 {
		return nil
	}
	gaps := make([]time.Duration, 0, len(ws)-1)
	for i := 1; i < len(ws); i++ {
		gaps = append(gaps, ws[i].Start.Sub(ws[i-1].End))
	}
	return gaps
}
