package orbit

import "time"

// Test-only exports for the external orbit_test package, whose tests
// import the constellation catalog (which imports orbit).
var (
	StepScanPasses    = (*PassPredictor).stepScanPasses
	LoadInterpCatalog = loadInterpCatalog
)

// stepScanPasses is PassesAppend without the motion-bound skip: the coarse
// scan probes every step, as it did before rows carried a bound. The
// skipping scan must return exactly its passes.
func (pp *PassPredictor) stepScanPasses(site Geodetic, start, end time.Time, minElevation float64) []Pass {
	if !end.After(start) {
		return nil
	}
	sc := pp.begin(site, start, end, minElevation)
	sc.skip = false
	defer sc.flush()
	var dst []Pass
	prevAbove, _ := sc.probe(0)
	for k := int64(1); k <= sc.kMax; k++ {
		above, _ := sc.probe(k)
		if !prevAbove && above {
			t := start.Add(time.Duration(k) * sc.step)
			aos := sc.bisect(t.Add(-sc.step), t, true)
			los := sc.findLOS(k)
			if pass, ok := sc.buildPass(aos, los); ok {
				dst = append(dst, pass)
			}
			if next := int64(los.Sub(start)/sc.step) + 1; next > k {
				k = next
				if k > sc.kMax {
					break
				}
				above, _ = sc.probe(k)
			}
		}
		prevAbove = above
	}
	return dst
}
