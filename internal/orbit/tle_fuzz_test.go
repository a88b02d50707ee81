package orbit

import (
	"math"
	"strings"
	"testing"
)

// validTLE is a well-formed Tianqi-style card for the seed corpus.
const validTLE = `TIANQI-1
1 44027U 24001A   24245.50000000  .00001000  00000+0  10000-3 0  9994
2 44027  97.5000 120.0000 0012000  45.0000 315.0000 14.80000000100003`

// FuzzParseTLE hammers the TLE parser with arbitrary byte soup. The
// contract under test: ParseTLE never panics, and any card it accepts is
// internally sane — finite fields that survive a Format round-trip
// (Format must terminate and re-parse).
func FuzzParseTLE(f *testing.F) {
	f.Add(validTLE)
	f.Add("1 25544U 98067A   24001.50000000  .00016717  00000-0  10270-3 0  9005\n" +
		"2 25544  51.6400 208.9163 0006317  69.9862 254.3157 15.49309239 20002")
	f.Add("")
	f.Add("1 44027U\n2 44027")                // truncated lines
	f.Add("garbage\nmore garbage\neven more") // three junk lines
	f.Add(strings.Repeat("1", 70) + "\n" + strings.Repeat("2", 70))
	f.Add("1 44027U 24001A   24245.50000000  .00001000  00000+0  10000-3 0  9994\n" +
		"2 44027  97.5000 120.0000 0012000  45.0000 315.0000 14.80000000100009") // bad checksum
	f.Add("1 44027U 24001A   24245.50000000  NaN         00000+0  10000-3 0  9994\n" +
		"2 44027  97.5000 120.0000 0012000  45.0000 315.0000 14.80000000100003") // NaN smuggling
	f.Add("名前\n1 44027U 24001A   24245.50000000  .00001000  00000+0  10000-3 0  9994\n" +
		"2 44027  97.5000 120.0000 0012000  45.0000 315.0000 14.80000000100003") // non-ASCII name

	f.Fuzz(func(t *testing.T, text string) {
		tle, err := ParseTLE(text)
		if err != nil {
			return
		}
		for name, v := range map[string]float64{
			"ndot": tle.NDot, "nddot": tle.NDDot, "bstar": tle.BStar,
			"inclination": tle.InclinationDeg, "raan": tle.RAANDeg,
			"eccentricity": tle.Eccentricity, "argp": tle.ArgPerigeeDeg,
			"meananomaly": tle.MeanAnomalyDeg, "meanmotion": tle.MeanMotion,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted TLE carries non-finite %s = %v", name, v)
			}
		}
		// Format must terminate and produce a parseable card again.
		if _, err := ParseTLE(tle.Format()); err != nil {
			t.Fatalf("round-trip re-parse failed: %v", err)
		}
	})
}
