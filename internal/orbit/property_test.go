package orbit

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// TestMergeWindowsProperties checks the interval-union invariants with
// generated window sets.
func TestMergeWindowsProperties(t *testing.T) {
	base := time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)
	prop := func(starts []uint16, durs []uint8) bool {
		n := len(starts)
		if len(durs) < n {
			n = len(durs)
		}
		if n == 0 {
			return true
		}
		windows := make([]Window, n)
		var sum time.Duration
		var longest time.Duration
		for i := 0; i < n; i++ {
			s := base.Add(time.Duration(starts[i]) * time.Minute)
			d := time.Duration(durs[i]+1) * time.Minute
			windows[i] = Window{Start: s, End: s.Add(d)}
			sum += d
			if d > longest {
				longest = d
			}
		}
		merged := MergeWindows(windows)
		total := TotalDuration(merged)
		// Union is bounded by the sum and at least as long as the longest
		// single window.
		if total > sum || total < longest {
			return false
		}
		// Merged windows are sorted, non-overlapping, non-touching.
		for i := 1; i < len(merged); i++ {
			if !merged[i].Start.After(merged[i-1].End) {
				return false
			}
		}
		// Every original window is contained in some merged window.
		for _, p := range windows {
			contained := false
			for _, w := range merged {
				if !p.Start.Before(w.Start) && !p.End.After(w.End) {
					contained = true
					break
				}
			}
			if !contained {
				return false
			}
		}
		// Gaps are all positive and there are len(merged)-1 of them.
		gaps := Gaps(merged)
		if len(merged) > 1 && len(gaps) != len(merged)-1 {
			return false
		}
		for _, g := range gaps {
			if g <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMergeWindowsIdempotent: merging a merged set changes nothing.
func TestMergeWindowsIdempotent(t *testing.T) {
	base := time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)
	prop := func(starts []uint16) bool {
		windows := make([]Window, len(starts))
		for i, s := range starts {
			a := base.Add(time.Duration(s) * time.Minute)
			windows[i] = Window{Start: a, End: a.Add(7 * time.Minute)}
		}
		if len(windows) == 0 {
			return true
		}
		once := MergeWindows(windows)
		twice := MergeWindows(once)
		if len(once) != len(twice) {
			return false
		}
		for i := range once {
			if !once[i].Start.Equal(twice[i].Start) || !once[i].End.Equal(twice[i].End) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSGP4TimeSymmetry: propagating to t is independent of call history
// (the propagator is stateless), checked with random offsets.
func TestSGP4TimeSymmetry(t *testing.T) {
	p := issProp(t)
	prop := func(aq, bq uint16) bool {
		a := float64(aq) / 10
		b := float64(bq) / 10
		s1, err1 := p.PropagateMinutes(a)
		_, _ = p.PropagateMinutes(b) // interleaved call must not matter
		s2, err2 := p.PropagateMinutes(a)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return s1.Position == s2.Position && s1.Velocity == s2.Velocity
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLookRangeTriangle: slant range obeys the triangle bound between
// observer geocentric distance and satellite geocentric distance.
func TestLookRangeTriangle(t *testing.T) {
	p := issProp(t)
	epoch := p.Elements().Epoch
	prop := func(latQ, lonQ uint8, minQ uint16) bool {
		site := Geodetic{
			Lat: (float64(latQ)/255 - 0.5) * math.Pi * 0.96,
			Lon: (float64(lonQ)/255 - 0.5) * twoPi * 0.99,
		}
		at := epoch.Add(time.Duration(minQ) * time.Minute / 4)
		r, v, err := p.PositionECEF(at)
		if err != nil {
			return true
		}
		la := Look(site, r, v)
		rs := r.Norm()
		ro := site.ECEF().Norm()
		lo, hi := math.Abs(rs-ro), rs+ro
		return la.RangeKm >= lo-1e-6 && la.RangeKm <= hi+1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
