package orbit

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/obs"
)

func TestEphemerisMatchesPropagatorBitExact(t *testing.T) {
	p, err := NewPropagator(leoElements())
	if err != nil {
		t.Fatal(err)
	}
	start := leoElements().Epoch
	step := 30 * time.Second
	eph := NewEphemerisWith(p, start, start.Add(2*time.Hour), EphemerisConfig{ScanStep: step, Exact: true})

	// In exact mode, on-grid queries come from the cache and off-grid
	// queries fall back to exact SGP4. Both must be bit-identical to
	// direct propagation — the escape hatch preserves the
	// pre-interpolation golden behavior.
	offsets := []time.Duration{
		0, step, 17 * step, 240 * step,
		13 * time.Second, 31*time.Minute + 7*time.Millisecond,
	}
	for _, off := range offsets {
		at := start.Add(off)
		r1, v1, err1 := p.PositionECEF(at)
		r2, v2, err2 := eph.PositionECEF(at)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("offset %v: error mismatch %v vs %v", off, err1, err2)
		}
		if r1 != r2 || v1 != v2 {
			t.Errorf("offset %v: state differs: %v/%v vs %v/%v", off, r1, v1, r2, v2)
		}
	}
	// Before the grid start the cache cannot answer; it must still agree.
	at := start.Add(-time.Minute)
	r1, _, _ := p.PositionECEF(at)
	r2, _, _ := eph.PositionECEF(at)
	if r1 != r2 {
		t.Errorf("pre-span query differs: %v vs %v", r1, r2)
	}
}

func TestEphemerisPredictorPassesBitIdentical(t *testing.T) {
	p, err := NewPropagator(leoElements())
	if err != nil {
		t.Fatal(err)
	}
	start := leoElements().Epoch
	end := start.Add(24 * time.Hour)
	site := NewGeodeticDeg(22.3, 114.2, 0)

	direct := NewPassPredictor(p).Passes(site, start, end, 0)
	eph := NewEphemerisWith(p, start, end, EphemerisConfig{ScanStep: 30 * time.Second, Exact: true})
	cached := NewEphemerisPredictor(eph).Passes(site, start, end, 0)
	if !reflect.DeepEqual(direct, cached) {
		t.Fatalf("cached passes differ from direct passes:\n%v\nvs\n%v", cached, direct)
	}
}

func TestEphemerisInterpolationStaysWithinBound(t *testing.T) {
	p, err := NewPropagator(leoElements())
	if err != nil {
		t.Fatal(err)
	}
	start := leoElements().Epoch
	end := start.Add(6 * time.Hour)
	eph := NewEphemeris(p, start, end, 30*time.Second)
	if eph.Exact() {
		t.Fatal("default ephemeris should interpolate, not run exact")
	}

	// Interpolated states must stay within the configured positional bound
	// of exact SGP4 at arbitrary off-grid instants, including awkward
	// sub-second offsets.
	offsets := []time.Duration{
		13 * time.Second, 71 * time.Second, 31*time.Minute + 7*time.Millisecond,
		2*time.Hour + 17*time.Second + 500*time.Microsecond,
		5*time.Hour + 59*time.Minute + 59*time.Second,
	}
	for _, off := range offsets {
		at := start.Add(off)
		exact, _, err1 := p.PositionECEF(at)
		interp, _, err2 := eph.PositionECEF(at)
		if err1 != nil || err2 != nil {
			t.Fatalf("offset %v: errors %v / %v", off, err1, err2)
		}
		if d := interp.Sub(exact).Norm(); d > eph.MaxInterpErrorKm() {
			t.Errorf("offset %v: interpolation error %.4f km exceeds bound %.4f km",
				off, d, eph.MaxInterpErrorKm())
		}
	}
}

func TestEphemerisInterpolationNeverSnapsOffGridQueries(t *testing.T) {
	// Regression: grid-hit detection must use a strict zero-remainder
	// contract for any step — including steps that do not divide the span —
	// so a query one nanosecond off-grid is interpolated (or propagated in
	// exact mode), never snapped to the nearest stored sample.
	p, err := NewPropagator(leoElements())
	if err != nil {
		t.Fatal(err)
	}
	start := leoElements().Epoch
	// A step that does not divide the requested span.
	step := 7*time.Second + 300*time.Millisecond
	end := start.Add(31 * time.Minute)

	for _, exact := range []bool{false, true} {
		eph := NewEphemerisWith(p, start, end, EphemerisConfig{ScanStep: step, SampleStep: step, Exact: exact})
		if got := eph.Step(); got != step {
			t.Fatalf("exact=%v: sample step %v, want %v", exact, got, step)
		}
		on := start.Add(4 * step)
		off := on.Add(time.Nanosecond)
		rOn, _, err := eph.PositionECEF(on)
		if err != nil {
			t.Fatal(err)
		}
		rOff, _, err := eph.PositionECEF(off)
		if err != nil {
			t.Fatal(err)
		}
		if rOn == rOff {
			t.Errorf("exact=%v: query 1ns off-grid returned the stored sample verbatim — snapped instead of interpolated/propagated", exact)
		}
		// The 1ns offset must still agree with exact propagation to within
		// the bound (and bit-exactly in exact mode).
		want, _, err := p.PositionECEF(off)
		if err != nil {
			t.Fatal(err)
		}
		if exact {
			if rOff != want {
				t.Errorf("exact mode: off-grid state %v differs from direct propagation %v", rOff, want)
			}
		} else if d := rOff.Sub(want).Norm(); d > eph.MaxInterpErrorKm() {
			t.Errorf("interp mode: off-grid error %.4f km exceeds bound", d)
		}
	}
}

func TestEphemerisCutsPropagationsToSatsTimesSteps(t *testing.T) {
	p, err := NewPropagator(leoElements())
	if err != nil {
		t.Fatal(err)
	}
	start := leoElements().Epoch
	end := start.Add(24 * time.Hour)
	step := 30 * time.Second
	steps := int64(end.Sub(start) / step)
	sites := []Geodetic{
		NewGeodeticDeg(22.3, 114.2, 0),
		NewGeodeticDeg(-33.87, 151.2, 0),
		NewGeodeticDeg(51.5, -0.1, 0),
		NewGeodeticDeg(40.44, -79.99, 0),
		NewGeodeticDeg(0, 0, 0),
		NewGeodeticDeg(25.04, 102.72, 1.9),
	}

	r := obs.New()
	SetMetrics(r)
	defer SetMetrics(nil)
	sgp4 := r.Counter("sinet_sgp4_calls_total", "")
	calls := func() int64 { return int64(sgp4.Value()) }

	for _, site := range sites {
		NewPassPredictor(p).Passes(site, start, end, 0)
	}
	serial := calls()

	before := calls()
	eph := NewEphemerisWith(p, start, end, EphemerisConfig{ScanStep: step, Exact: true})
	build := calls() - before
	for _, site := range sites {
		NewEphemerisPredictor(eph).Passes(site, start, end, 0)
	}
	shared := calls() - before

	if build < steps || build > steps+8 {
		t.Errorf("ephemeris build used %d propagations, want ~%d (one per step)", build, steps)
	}
	// With the shared cache the per-site marginal cost is AOS/LOS
	// refinement only — far below one propagation per coarse step.
	marginal := (shared - build) / int64(len(sites))
	if marginal > steps/4 {
		t.Errorf("per-site marginal propagations %d, want ≪ %d coarse steps", marginal, steps)
	}
	// And the whole O(sats×steps + sites×refine) total must clearly beat
	// the O(sats×sites×steps) serial count.
	if shared*2 > serial {
		t.Errorf("shared total %d not at least 2× below serial total %d", shared, serial)
	}

	// Interpolated mode samples coarser than it scans and answers scan and
	// bisection queries from the interpolant, so the entire shared sweep —
	// build plus six sites of pass search — must undercut even the
	// exact-mode build cost.
	before = calls()
	interpEph := NewEphemeris(p, start, end, step)
	for _, site := range sites {
		NewEphemerisPredictor(interpEph).Passes(site, start, end, 0)
	}
	interpTotal := calls() - before
	if interpTotal >= build {
		t.Errorf("interpolated sweep used %d propagations, want below exact-mode build count %d", interpTotal, build)
	}
}

func TestConcurrentEphemerisAndCloneUse(t *testing.T) {
	// Regression for the goroutine-safety contract: one shared Ephemeris,
	// interpolated or exact (whose off-grid queries go through its one
	// propagator), plus per-goroutine Propagator clones must be race-free
	// (run under -race) and return identical results on every goroutine.
	p, err := NewPropagator(leoElements())
	if err != nil {
		t.Fatal(err)
	}
	start := leoElements().Epoch
	end := start.Add(6 * time.Hour)
	eph := NewEphemeris(p, start, end, 30*time.Second)
	exact := NewEphemerisWith(p, start, end, EphemerisConfig{ScanStep: 30 * time.Second, Exact: true})
	site := NewGeodeticDeg(22.3, 114.2, 0)

	const workers = 8
	passes := make([][]Pass, workers)
	exactPasses := make([][]Pass, workers)
	states := make([]Vec3, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			passes[w] = NewEphemerisPredictor(eph).Passes(site, start, end, 0)
			exactPasses[w] = NewEphemerisPredictor(exact).Passes(site, start, end, 0)
			r, _, err := p.Clone().PositionECEF(start.Add(90 * time.Minute))
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			states[w] = r
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(passes[0], passes[w]) {
			t.Errorf("worker %d saw different passes", w)
		}
		if !reflect.DeepEqual(exactPasses[0], exactPasses[w]) {
			t.Errorf("worker %d saw different exact-mode passes", w)
		}
		if states[0] != states[w] {
			t.Errorf("worker %d clone state differs: %v vs %v", w, states[w], states[0])
		}
	}
}

// rotationFleet is three LEO element sets epoched at start, and with
// decaying, a fourth that decays 324 minutes past it.
func rotationFleet(t *testing.T, start time.Time, decaying bool) []*Propagator {
	t.Helper()
	var els []Elements
	for i := 0; i < 3; i++ {
		e := leoElements()
		e.NoradID += i
		e.RAAN, e.MeanAnomaly = float64(i), float64(2*i)
		els = append(els, e)
	}
	if decaying {
		e := leoElements()
		e.NoradID, e.MeanMotion, e.BStar = 90200, MeanMotionFromAltitude(200), 0.05
		els = append(els, e)
	}
	props := make([]*Propagator, len(els))
	for i, e := range els {
		e.Epoch = start
		p, err := NewPropagator(e)
		if err != nil {
			t.Fatal(err)
		}
		props[i] = p
	}
	return props
}

// recordGrid propagates a grid that keeps its TEME samples and returns
// them.
func recordGrid(props []*Propagator, start, end time.Time, cfg EphemerisConfig) (*EphemerisGrid, *Trajectory) {
	g := NewEphemerisGrid(props, start, end, cfg)
	g.Record()
	for i := 0; i < g.Sats(); i++ {
		g.Propagate(i)
	}
	tr := g.Trajectory()
	g.Finish()
	return g, tr
}

// TestGridRotateMatchesSGP4: a grid at a new start, its element sets
// epoched at that start, that rotates the TEME samples a grid recorded at
// another start equals an SGP4-propagated grid bit for bit: samples,
// exact-mode demotions and motion bounds, interpolated and exact alike.
// Its rows run SGP4 only to validate (two probes a row, none in exact
// mode), and it keeps no trajectory of its own.
func TestGridRotateMatchesSGP4(t *testing.T) {
	r := obs.New()
	SetMetrics(r)
	defer SetMetrics(nil)
	sgp4 := r.Counter("sinet_sgp4_calls_total", "")
	a := time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)
	b := a.Add(26*time.Hour + 7*time.Minute + 3*time.Second + 11)
	for _, cfg := range []EphemerisConfig{{ScanStep: time.Minute}, {ScanStep: time.Minute, Exact: true}} {
		rec, tr := recordGrid(rotationFleet(t, a, false), a, a.Add(6*time.Hour), cfg)
		if tr == nil {
			t.Fatalf("exact=%v: a recorded grid without propagation errors returned no trajectory", cfg.Exact)
		}
		if tr.Bytes() != rec.Bytes() {
			t.Errorf("exact=%v: trajectory holds %d bytes, its grid %d", cfg.Exact, tr.Bytes(), rec.Bytes())
		}
		want := NewEphemerisGrid(rotationFleet(t, b, false), b, b.Add(6*time.Hour), cfg)
		want.PropagateAll()
		got := NewEphemerisGrid(rotationFleet(t, b, false), b, b.Add(6*time.Hour), cfg)
		got.Rotate(tr)
		before := sgp4.Value()
		for i := 0; i < got.Sats(); i++ {
			got.Propagate(i)
		}
		validation := uint64(2 * got.Sats())
		if cfg.Exact {
			validation = 0
		}
		if n := sgp4.Value() - before; n != validation {
			t.Errorf("exact=%v: rotated rows made %d SGP4 calls, want %d for validation", cfg.Exact, n, validation)
		}
		if got.Trajectory() != nil {
			t.Errorf("exact=%v: a rotated grid returned a trajectory", cfg.Exact)
		}
		got.Finish()
		if len(got.buf) != len(want.buf) {
			t.Fatalf("exact=%v: %d samples, want %d", cfg.Exact, len(got.buf), len(want.buf))
		}
		for i := range want.buf {
			if math.Float64bits(got.buf[i]) != math.Float64bits(want.buf[i]) {
				t.Fatalf("exact=%v: sample component %d is %v, SGP4 gives %v", cfg.Exact, i, got.buf[i], want.buf[i])
			}
		}
		for i := range want.views {
			g, w := &got.views[i], &want.views[i]
			if g.exact != w.exact || g.rhoMax != w.rhoMax || g.omegaMax != w.omegaMax || g.errs != nil {
				t.Errorf("exact=%v: row %d validates or bounds unlike SGP4's", cfg.Exact, i)
			}
		}
	}
}

// TestGridRecordWithErrorRowKeepsNoTrajectory: a row that fails to
// propagate leaves the grid no trajectory to file, and a trajectory of
// another shape does not fit a grid.
func TestGridRecordWithErrorRowKeepsNoTrajectory(t *testing.T) {
	a := time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)
	if _, tr := recordGrid(rotationFleet(t, a, true), a, a.Add(12*time.Hour), EphemerisConfig{ScanStep: time.Minute}); tr != nil {
		t.Fatal("a grid with a decayed row returned a trajectory")
	}
	_, tr := recordGrid(rotationFleet(t, a, false), a, a.Add(6*time.Hour), EphemerisConfig{ScanStep: time.Minute})
	defer func() {
		if recover() == nil {
			t.Fatal("a grid of another span rotated the trajectory")
		}
	}()
	NewEphemerisGrid(rotationFleet(t, a, false), a, a.Add(7*time.Hour), EphemerisConfig{ScanStep: time.Minute}).Rotate(tr)
}
