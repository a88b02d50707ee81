package orbit

import (
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
	// Regression for the goroutine-safety contract: one shared Ephemeris
	// plus per-goroutine Propagator clones must be race-free (run under
	// -race) and return identical results on every goroutine.
	p, err := NewPropagator(leoElements())
	if err != nil {
		t.Fatal(err)
	}
	start := leoElements().Epoch
	end := start.Add(6 * time.Hour)
	eph := NewEphemeris(p, start, end, 30*time.Second)
	site := NewGeodeticDeg(22.3, 114.2, 0)

	const workers = 8
	passes := make([][]Pass, workers)
	states := make([]Vec3, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			passes[w] = NewEphemerisPredictor(eph).Passes(site, start, end, 0)
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
		if states[0] != states[w] {
			t.Errorf("worker %d clone state differs: %v vs %v", w, states[w], states[0])
		}
	}
}
