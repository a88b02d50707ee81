package orbit_test

import (
	"math"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/orbit"
)

// visibleFraction is p(φ), the long-run fraction of time one satellite on a
// circular orbit of radius aKm and inclination incl is at or above the
// mask eps from latitude lat, on a sphere of radius R = 6,371 km (so the
// altitude is h = aKm − R), from geometry independent of SGP4 and the pass
// scan.
//
// The sub-satellite latitude β has density cos β/(π·√(sin²i − sin²β)) on
// |β| < i (or π − i for a retrograde orbit); substituting
// sin β = sin i·sin u makes it uniform, du/π on u ∈ [−π/2, π/2]. Earth turns
// under the orbit, so the longitude offset Δλ from the site is uniform. The
// satellite is in view when its central angle c from the site is at most
// the cap half-angle ψ = arccos(R·cos ε/(R + h)) − ε, where
// cos c = sin φ sin β + cos φ cos β cos Δλ; for a given β that holds on a
// fraction arccos(x)/π of the offsets, x = (cos ψ − sin φ sin β)/(cos φ cos β).
func visibleFraction(lat, incl, aKm, eps float64) float64 {
	const R = 6371.0
	psi := math.Acos(R*math.Cos(eps)/aKm) - eps
	const n = 4000
	sum := 0.0
	for k := 0; k < n; k++ {
		u := -math.Pi/2 + math.Pi*(float64(k)+0.5)/n
		beta := math.Asin(math.Sin(incl) * math.Sin(u))
		x := (math.Cos(psi) - math.Sin(lat)*math.Sin(beta)) / (math.Cos(lat) * math.Cos(beta))
		sum += math.Acos(math.Max(-1, math.Min(1, x))) / math.Pi
	}
	return sum / n
}

// TestVisibleFractionMatchesAnalyticOracle checks the visibility layer
// against closed-form geometry: for every satellite of the four catalog
// fleets, the fraction of 30 days that PassesAppend reports in view at
// 1-minute scan steps is within 3% of p(φ), at latitudes 0°, 22°, 40° and
// 60° and masks 0° and 10°. The spherical Earth puts the measured fraction
// about 2% under p(φ) at the equator, where the ellipsoid's radius is
// above R, and about 2% over it at 60°, where it is below.
func TestVisibleFractionMatchesAnalyticOracle(t *testing.T) {
	start := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	const days = 30
	end := start.Add(days * 24 * time.Hour)
	// Sites around each latitude circle average out the near-repeat of a
	// single satellite's ground track over 30 days; p(φ) does not depend
	// on longitude.
	var lons []float64
	for lon := -180.0; lon < 180; lon += 60 {
		lons = append(lons, lon)
	}
	for _, c := range constellation.All(start) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			props, err := c.Propagators()
			if err != nil {
				t.Fatal(err)
			}
			grid := orbit.NewEphemerisGrid(props, start, end, orbit.EphemerisConfig{ScanStep: time.Minute})
			grid.PropagateAll()
			compared := 0
			lo, hi := math.Inf(1), math.Inf(-1)
			var passes []orbit.Pass
			for i := 0; i < grid.Sats(); i++ {
				eph := grid.Sat(i)
				els := eph.Elements()
				// Kepler's third law with SGP4's WGS-72 μ (km³/s²); the
				// mean motion is in rad/min.
				n := els.MeanMotion / 60
				a := math.Cbrt(398600.8 / (n * n))
				pp := orbit.NewEphemerisPredictor(eph)
				for _, latDeg := range []float64{0, 22, 40, 60} {
					for _, maskDeg := range []float64{0, 10} {
						lat, mask := latDeg*math.Pi/180, maskDeg*math.Pi/180
						var inView time.Duration
						for _, lonDeg := range lons {
							passes = pp.PassesAppend(passes[:0], orbit.NewGeodeticDeg(latDeg, lonDeg, 0), start, end, mask)
							for _, p := range passes {
								inView += p.Duration()
							}
						}
						got := float64(inView) / float64(end.Sub(start)) / float64(len(lons))
						want := visibleFraction(lat, els.Inclination, a, mask)
						if want < 1e-3 {
							// Out of reach of the site, or nearly: the ratio
							// would rest on a handful of grazing passes.
							if got > 2e-3 {
								t.Errorf("%s lat %v° mask %v°: in view %.5f of the time, oracle %.5f",
									els.Name, latDeg, maskDeg, got, want)
							}
							continue
						}
						ratio := got / want
						lo, hi = math.Min(lo, ratio), math.Max(hi, ratio)
						compared++
						if math.Abs(ratio-1) > 0.03 {
							t.Errorf("%s lat %v° mask %v°: in view %.5f of the time, oracle %.5f (ratio %.4f)",
								els.Name, latDeg, maskDeg, got, want, ratio)
						}
					}
				}
			}
			if compared == 0 {
				t.Fatal("no satellite in reach of any site")
			}
			t.Logf("%d comparisons, measured/oracle in [%.4f, %.4f]", compared, lo, hi)
		})
	}
}
