package orbit

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestJulianDateKnownValues(t *testing.T) {
	cases := []struct {
		name string
		t    time.Time
		want float64
	}{
		{"J2000 epoch", time.Date(2000, 1, 1, 12, 0, 0, 0, time.UTC), 2451545.0},
		{"Unix epoch", time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC), 2440587.5},
		{"Vallado example", time.Date(1996, 10, 26, 14, 20, 0, 0, time.UTC), 2450383.09722222},
		{"campaign start", time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC), 2460554.5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := JulianDate(c.t)
			if math.Abs(got-c.want) > 1e-6 {
				t.Errorf("JulianDate(%v) = %.8f, want %.8f", c.t, got, c.want)
			}
		})
	}
}

// timeFromJulian converts a Julian date back to UTC time: the inverse the
// round trip checks JulianDate against, to sub-millisecond precision.
func timeFromJulian(jd float64) time.Time {
	// Days since Go's reference of the Unix epoch: JD 2440587.5.
	const unixEpochJD = 2440587.5
	seconds := (jd - unixEpochJD) * 86400.0
	sec := math.Floor(seconds)
	nsec := (seconds - sec) * 1e9
	return time.Unix(int64(sec), int64(nsec)).UTC()
}

func TestTimeFromJulianRoundTrip(t *testing.T) {
	times := []time.Time{
		time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2025, 3, 31, 23, 59, 59, 0, time.UTC),
		time.Date(2000, 2, 29, 12, 30, 45, 0, time.UTC),
	}
	for _, in := range times {
		out := timeFromJulian(JulianDate(in))
		if d := out.Sub(in); d < -5*time.Millisecond || d > 5*time.Millisecond {
			t.Errorf("round trip %v -> %v, drift %v", in, out, d)
		}
	}
}

func TestGMSTKnownValue(t *testing.T) {
	// Vallado example 3-5: 1992 Aug 20 12:14 UT1 -> GMST 152.578787810°.
	jd := JulianDate(time.Date(1992, 8, 20, 12, 14, 0, 0, time.UTC))
	got := GMST(jd) * rad2Deg
	want := 152.578787810
	if math.Abs(got-want) > 1e-4 {
		t.Errorf("GMST = %.6f°, want %.6f°", got, want)
	}
}

func TestGMSTAdvancesSiderealRate(t *testing.T) {
	// One solar day advances GMST by ~0.9856° (the sidereal lead).
	t0 := time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)
	g0 := GMSTAt(t0)
	g1 := GMSTAt(t0.Add(24 * time.Hour))
	delta := wrapTwoPi(g1-g0) * rad2Deg
	if math.Abs(delta-0.98565) > 1e-3 {
		t.Errorf("GMST daily advance = %.5f°, want ~0.98565°", delta)
	}
}

func TestGMSTRange(t *testing.T) {
	check := func(unixSec int64) bool {
		g := GMSTAt(time.Unix(unixSec%4102444800, 0)) // clamp to pre-2100
		return g >= 0 && g < twoPi
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestEpochConversionRoundTrip(t *testing.T) {
	in := time.Date(2024, 11, 15, 6, 30, 0, 0, time.UTC)
	yy, doy := timeToEpoch(in)
	out := epochToTime(yy, doy)
	if d := out.Sub(in); d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("epoch round trip drift %v", d)
	}
}

func TestEpochYearPivot(t *testing.T) {
	if got := epochToTime(57, 1.0).Year(); got != 1957 {
		t.Errorf("epoch year 57 -> %d, want 1957", got)
	}
	if got := epochToTime(56, 1.0).Year(); got != 2056 {
		t.Errorf("epoch year 56 -> %d, want 2056", got)
	}
	if got := epochToTime(0, 1.0).Year(); got != 2000 {
		t.Errorf("epoch year 00 -> %d, want 2000", got)
	}
}

func TestWrapHelpers(t *testing.T) {
	if got := wrapTwoPi(-0.1); math.Abs(got-(twoPi-0.1)) > 1e-12 {
		t.Errorf("wrapTwoPi(-0.1) = %v", got)
	}
	if got := wrapPi(3 * math.Pi / 2); math.Abs(got-(-math.Pi/2)) > 1e-12 {
		t.Errorf("wrapPi(3π/2) = %v", got)
	}
	prop := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
			return true
		}
		w := wrapTwoPi(x)
		p := wrapPi(x)
		return w >= 0 && w < twoPi && p > -math.Pi-1e-9 && p <= math.Pi+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
