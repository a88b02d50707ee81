package backhaul

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/sim"
)

// unculledWindows is DownlinkWindowsUp without the cone test: the exact
// predicate (Bowring's conversion plus one haversine per station that is
// up) at every step. The culled sweep must return exactly its windows.
func unculledWindows(g GroundSegment, src orbit.StateSource, start, end time.Time, step time.Duration, up func(station int, at time.Time) bool) []orbit.Window {
	if !end.After(start) || len(g.Stations) == 0 {
		return nil
	}
	if step <= 0 {
		step = time.Minute
	}
	var windows []orbit.Window
	var open bool
	var winStart time.Time
	prev := start
	for t := start; t.Before(end); t = t.Add(step) {
		rECEF, _, err := src.PositionECEF(t)
		in := false
		if err == nil {
			sub := orbit.GeodeticFromECEF(rECEF)
			maxGround := g.maxGroundDistanceKm(sub.Alt)
			for i, st := range g.Stations {
				if up != nil && !up(i, t) {
					continue
				}
				if orbit.HaversineKm(sub, st) <= maxGround {
					in = true
					break
				}
			}
		}
		switch {
		case in && !open:
			open = true
			winStart = t
		case !in && open:
			open = false
			windows = append(windows, orbit.Window{Start: winStart, End: prev})
		}
		prev = t
	}
	if open {
		windows = append(windows, orbit.Window{Start: winStart, End: end})
	}
	return windows
}

// firstDifference describes where two window lists first part.
func firstDifference(got, want []orbit.Window) string {
	for k := 0; k < len(got) && k < len(want); k++ {
		if got[k] != want[k] {
			return fmt.Sprintf("window %d is %v, want %v", k, got[k], want[k])
		}
	}
	return fmt.Sprintf("%d windows, want %d", len(got), len(want))
}

// flakyUp is a deterministic pseudo-random outage predicate: each station
// is down in about a third of its five-minute slots, independently.
func flakyUp(station int, at time.Time) bool {
	h := uint64(at.Unix()/300)*0x9e3779b97f4a7c15 ^ uint64(station+1)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return h%3 != 0
}

// globalSegment is a synthetic segment that puts stations where the cone
// is tightest or the coordinates wrap: next to both poles, on both sides
// of the antimeridian, and at 45°, where geodetic and geocentric latitude
// differ most.
func globalSegment() GroundSegment {
	return GroundSegment{
		Name:            "synthetic global",
		MinElevationRad: 5 * math.Pi / 180,
		DrainDuration:   30 * time.Second,
		Stations: []orbit.Geodetic{
			orbit.NewGeodeticDeg(89.9, 0, 0),
			orbit.NewGeodeticDeg(-89.9, 179.99, 0.1),
			orbit.NewGeodeticDeg(0, 179.99, 0),
			orbit.NewGeodeticDeg(0, -179.99, 0),
			orbit.NewGeodeticDeg(45, -179.99, 0.5),
			orbit.NewGeodeticDeg(-45, 90, 2),
			orbit.NewGeodeticDeg(89.9, -120, 0),
			orbit.NewGeodeticDeg(-89.9, 60, 0),
		},
	}
}

// eccentricFleet is orbit's eccentric and low-altitude stress catalog
// (internal/orbit/testdata/interp_tles.tle) as a constellation.
func eccentricFleet(t *testing.T) constellation.Constellation {
	t.Helper()
	raw, err := os.ReadFile("../orbit/testdata/interp_tles.tle")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	c := constellation.Constellation{Name: "eccentric"}
	for i := 0; i+3 <= len(lines); i += 3 {
		tle, err := orbit.ParseTLE(strings.Join(lines[i:i+3], "\n"))
		if err != nil {
			t.Fatal(err)
		}
		c.Sats = append(c.Sats, tle.Elements())
	}
	return c
}

// TestDownlinkWindowsMatchesUnculledSweep compares the sweep — the cone,
// and the skip by the row's motion bound — with the exact test at every
// step, over the grid's span and, with every station up, over a window
// that starts before it and runs past it (exact SGP4 outside the span).
func TestDownlinkWindowsMatchesUnculledSweep(t *testing.T) {
	end := epoch.Add(28 * time.Hour)
	fleets := []constellation.Constellation{
		constellation.Tianqi(epoch),
		constellation.PICO(epoch),
		constellation.Mega(epoch, 24),
		eccentricFleet(t),
	}
	tianqiNoMask := TianqiGroundSegment()
	tianqiNoMask.MinElevationRad = 0
	segments := []GroundSegment{TianqiGroundSegment(), tianqiNoMask, globalSegment()}
	ups := []struct {
		name string
		up   func(int, time.Time) bool
	}{{"all-up", nil}, {"flaky", flakyUp}}
	// The grids sample at one minute at most, so the 17 s step queries
	// off-grid instants and runs the Hermite path.
	steps := []time.Duration{time.Minute, 17 * time.Second}
	for _, c := range fleets {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			props, err := c.Propagators()
			if err != nil {
				t.Fatal(err)
			}
			grid := orbit.NewEphemerisGrid(props, epoch, end, orbit.EphemerisConfig{ScanStep: time.Minute})
			grid.PropagateAll()
			windows, bounded := 0, 0
			for si := 0; si < grid.Sats(); si++ {
				if _, _, ok := grid.Sat(si).MotionBound(); ok {
					bounded++
				}
				for gi, g := range segments {
					for _, u := range ups {
						for _, step := range steps {
							spans := [][2]time.Time{{epoch, end}}
							if u.up == nil {
								spans = append(spans, [2]time.Time{epoch.Add(-7 * time.Minute), end.Add(40 * time.Minute)})
							}
							for _, w := range spans {
								want := unculledWindows(g, grid.Sat(si), w[0], w[1], step, u.up)
								got := g.DownlinkWindowsUp(grid.Sat(si), w[0], w[1], step, u.up)
								if !reflect.DeepEqual(got, want) {
									t.Fatalf("sat %d, segment %d (%s), %s, step %v, %v–%v: culled sweep differs: %s",
										si, gi, g.Name, u.name, step, w[0], w[1], firstDifference(got, want))
								}
								windows += len(want)
							}
						}
					}
				}
			}
			if windows == 0 || bounded == 0 {
				t.Fatalf("%d downlink windows, %d bounded rows: the comparison proved nothing", windows, bounded)
			}
		})
	}
}

// TestDownlinkConeAdmitsThresholdPoints puts sub-points exactly on the
// exact test's threshold — at the horizon distance of a random station,
// at a random altitude and azimuth — and requires the cone to admit the
// station. The margin rests on the bound derived at reaches; this sample
// checks it and shows how much of the margin the worst case uses.
func TestDownlinkConeAdmitsThresholdPoints(t *testing.T) {
	g := TianqiGroundSegment()
	rng := sim.NewRNG(14, "cone-threshold")
	worst := math.Inf(-1)
	const n = 200000
	for k := 0; k < n; k++ {
		st := orbit.Geodetic{
			Lat: math.Asin(2*rng.Float64() - 1),
			Lon: math.Pi * (2*rng.Float64() - 1),
			Alt: 4 * rng.Float64(),
		}
		alt := 200 + 1800*rng.Float64()
		az := 2 * math.Pi * rng.Float64()
		// Walk the great circle from the station by the horizon angle, with
		// geodetic coordinates read as spherical ones, as HaversineKm does.
		d := g.maxGroundDistanceKm(alt) / meanEarthRadiusKm
		lat := math.Asin(math.Sin(st.Lat)*math.Cos(d) + math.Cos(st.Lat)*math.Sin(d)*math.Cos(az))
		lon := st.Lon + math.Atan2(math.Sin(az)*math.Sin(d)*math.Cos(st.Lat), math.Cos(d)-math.Sin(st.Lat)*math.Sin(lat))
		sub := orbit.Geodetic{Lat: lat, Lon: lon, Alt: alt}
		if got, want := orbit.HaversineKm(sub, st), g.maxGroundDistanceKm(alt); math.Abs(got-want) > 1e-6 {
			t.Fatalf("point %d: %.9f km from the station, want the threshold %.9f km", k, got, want)
		}
		r := sub.ECEF()
		dir := sphereDir(st)
		if dir.Dot(r) < g.coneMinDot(r) {
			t.Fatalf("point %d on the threshold (station %v, sub-point %v) is outside the cone", k, st, sub)
		}
		// How far past the marginless cone the point lies, in radians.
		angle := math.Acos(math.Min(1, dir.Dot(r)/r.Norm()))
		worst = math.Max(worst, angle-g.maxGroundAngle(r.Norm()-polarRadiusKm))
	}
	t.Logf("worst excess over the marginless cone: %.5f rad (margin %.3f rad)", worst, coneMarginRad)
}
