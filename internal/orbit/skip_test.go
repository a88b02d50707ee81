package orbit_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/orbit"
)

var skipEpoch = time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)

// boundGrid is one propagated grid the skip tests scan.
type boundGrid struct {
	name string
	grid *orbit.EphemerisGrid
}

// skipGrids propagates the rows the skip tests read over [skipEpoch,
// skipEpoch+span]: the four catalog fleets, Mega(24) and the eccentric
// stress catalog, the last both as one shared grid and one grid per
// satellite (each calibrated for its own orbit), plus one exact-mode row,
// which has no bound.
func skipGrids(t *testing.T, span time.Duration) []boundGrid {
	t.Helper()
	end := skipEpoch.Add(span)
	cfg := orbit.EphemerisConfig{ScanStep: 30 * time.Second}
	var out []boundGrid
	add := func(name string, props []*orbit.Propagator) {
		g := orbit.NewEphemerisGrid(props, skipEpoch, end, cfg)
		g.PropagateAll()
		out = append(out, boundGrid{name, g})
	}
	fleets := append(constellation.All(skipEpoch), constellation.Mega(skipEpoch, 24))
	for _, c := range fleets {
		props, err := c.Propagators()
		if err != nil {
			t.Fatal(err)
		}
		add(c.Name, props)
	}
	interp := orbit.LoadInterpCatalog(t)
	add("interp", interp)
	for _, p := range interp {
		add(p.Elements().Name, []*orbit.Propagator{p})
	}
	cfg.Exact = true
	add("exact", interp[3:4])
	return out
}

// TestPassesAppendMatchesStepScan pins the motion-bound skip: the pass scan
// that jumps over steps the row's bound proves below the mask returns
// exactly the passes of a scan that probes every step, and WindowsAppend
// returns exactly their AOS/LOS windows. The cases cover sites on the
// equator, at ±45° and next to both poles, one on the antimeridian, at 0
// and 4 km; masks of 0°, 10° and −1° (no skip); scan steps of 30 s, 1 min
// and an off-grid 17 s; and windows that start off the sampling grid,
// before the span (exact SGP4 before it) and run past its end (exact SGP4
// after it).
func TestPassesAppendMatchesStepScan(t *testing.T) {
	span := 6 * time.Hour
	grids := skipGrids(t, span)
	gridEnd := skipEpoch.Add(span)
	var sites []orbit.Geodetic
	for _, alt := range []float64{0, 4} {
		sites = append(sites,
			orbit.NewGeodeticDeg(0, 0, alt),
			orbit.NewGeodeticDeg(45, 100, alt),
			orbit.NewGeodeticDeg(-45, -60, alt),
			orbit.NewGeodeticDeg(89.9, 30, alt),
			orbit.NewGeodeticDeg(-89.9, -150, alt),
			orbit.NewGeodeticDeg(20, 180, alt),
		)
	}
	masks := []float64{0, 10 * math.Pi / 180, -1 * math.Pi / 180}
	steps := []time.Duration{30 * time.Second, time.Minute, 17 * time.Second}
	windows := []struct {
		name       string
		start, end time.Time
	}{
		{"off-grid start", skipEpoch.Add(7*time.Second + 3*time.Minute), skipEpoch.Add(4 * time.Hour)},
		{"before span", skipEpoch.Add(-7*time.Minute + 11*time.Second), skipEpoch.Add(time.Hour)},
		{"past span", gridEnd.Add(-time.Hour), gridEnd.Add(9 * time.Minute)},
	}

	reg := obs.New()
	orbit.SetMetrics(reg)
	defer orbit.SetMetrics(nil)
	queries := func() uint64 {
		return reg.Counter("sinet_ephemeris_hits_total", "").Value() +
			reg.Counter("sinet_ephemeris_interp_total", "").Value() +
			reg.Counter("sinet_ephemeris_misses_total", "").Value()
	}

	bounded, passes := 0, 0
	var stepQueries, skipQueries uint64
	for _, bg := range grids {
		for i := 0; i < bg.grid.Sats(); i++ {
			eph := bg.grid.Sat(i)
			if _, _, ok := eph.MotionBound(); ok {
				bounded++
			}
			pp := orbit.NewEphemerisPredictor(eph)
			for _, site := range sites {
				for _, mask := range masks {
					for _, step := range steps {
						pp.CoarseStep = step
						for _, w := range windows {
							name := fmt.Sprintf("%s/%s site %v mask %.0f° step %v window %s",
								bg.name, eph.Elements().Name, site, mask*180/math.Pi, step, w.name)
							q0 := queries()
							want := orbit.StepScanPasses(pp, site, w.start, w.end, mask)
							q1 := queries()
							got := pp.PassesAppend(nil, site, w.start, w.end, mask)
							q2 := queries()
							if mask >= 0 {
								stepQueries += q1 - q0
								skipQueries += q2 - q1
							}
							if len(got) != len(want) {
								t.Fatalf("%s: %d passes, want %d", name, len(got), len(want))
							}
							for k := range want {
								if got[k] != want[k] {
									t.Fatalf("%s: pass %d is %+v, want %+v", name, k, got[k], want[k])
								}
							}
							ws := pp.WindowsAppend(nil, site, w.start, w.end, mask)
							if len(ws) != len(want) {
								t.Fatalf("%s: %d windows, want %d", name, len(ws), len(want))
							}
							for k := range want {
								if ws[k] != want[k].Window() {
									t.Fatalf("%s: window %d is %v, want %v", name, k, ws[k], want[k].Window())
								}
							}
							passes += len(want)
						}
					}
				}
			}
		}
	}
	if bounded == 0 || passes == 0 {
		t.Fatalf("%d bounded rows and %d passes: the cases test nothing", bounded, passes)
	}
	// The skip must actually skip: over the cases with a mask it applies
	// to, the skipping scans (which also build the passes) query well
	// under the step scans.
	if skipQueries*2 > stepQueries {
		t.Errorf("skipping scans made %d ephemeris queries, step scans %d", skipQueries, stepQueries)
	}
	t.Logf("%d bounded rows, %d passes; ephemeris queries %d (skipping) vs %d (step by step)",
		bounded, passes, skipQueries, stepQueries)
}

// TestRowMotionBoundHolds queries every bounded row at 1 s steps across its
// span: every position lies within ρ_max of Earth's centre, and the
// direction turns by at most ω_max·1 s between consecutive queries.
func TestRowMotionBoundHolds(t *testing.T) {
	span := 12 * time.Hour
	bounded := 0
	for _, bg := range skipGrids(t, span) {
		for i := 0; i < bg.grid.Sats(); i++ {
			eph := bg.grid.Sat(i)
			rhoMax, omegaMax, ok := eph.MotionBound()
			if !ok {
				continue
			}
			bounded++
			lo, hi := eph.Span()
			var prev orbit.Vec3
			for at := lo; !at.After(hi); at = at.Add(time.Second) {
				r, _, err := eph.PositionECEF(at)
				if err != nil {
					t.Fatalf("%s: %v", eph.Elements().Name, err)
				}
				if n := r.Norm(); n > rhoMax {
					t.Fatalf("%s at %v: |r| = %.6f km exceeds ρ_max %.6f km", eph.Elements().Name, at, n, rhoMax)
				}
				if at != lo {
					// atan2 keeps the small angle precise where acos of
					// the dot product would not.
					turn := math.Atan2(prev.Cross(r).Norm(), prev.Dot(r))
					if turn > omegaMax {
						t.Fatalf("%s at %v: direction turned %.9f rad in 1 s, ω_max %.9f rad/s",
							eph.Elements().Name, at, turn, omegaMax)
					}
				}
				prev = r
			}
		}
	}
	if bounded == 0 {
		t.Fatal("no bounded rows")
	}
}
