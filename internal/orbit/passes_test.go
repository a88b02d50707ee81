package orbit

import (
	"math"
	"testing"
	"time"
)

// leoElements returns a synthetic sun-synchronous-like LEO element set whose
// epoch anchors the pass-search tests.
func leoElements() Elements {
	return Elements{
		NoradID:      90100,
		Name:         "SINET-LEO",
		Epoch:        time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC),
		Inclination:  97.6 * deg2Rad,
		Eccentricity: 0.0008,
		ArgPerigee:   90 * deg2Rad,
		MeanAnomaly:  0,
		MeanMotion:   MeanMotionFromAltitude(510),
		BStar:        2e-5,
	}
}

func TestPassesFoundOverOneDay(t *testing.T) {
	p, err := NewPropagator(leoElements())
	if err != nil {
		t.Fatal(err)
	}
	pp := NewPassPredictor(p)
	site := NewGeodeticDeg(22.3, 114.2, 0) // Hong Kong
	start := leoElements().Epoch
	passes := pp.Passes(site, start, start.Add(24*time.Hour), 0)

	// A 510 km polar orbit yields 4-6 visible passes per day over a
	// mid-latitude site.
	if len(passes) < 2 || len(passes) > 8 {
		t.Fatalf("got %d passes in a day, want 2-8", len(passes))
	}
	for i, pass := range passes {
		if !pass.LOS.After(pass.AOS) {
			t.Errorf("pass %d: LOS not after AOS", i)
		}
		if d := pass.Duration(); d < time.Minute || d > 20*time.Minute {
			t.Errorf("pass %d: duration %v outside plausible LEO range", i, d)
		}
		if pass.MaxElevation < 0 {
			t.Errorf("pass %d: negative max elevation", i)
		}
		if pass.TCA.Before(pass.AOS) || pass.TCA.After(pass.LOS) {
			t.Errorf("pass %d: TCA outside window", i)
		}
		if pass.MinRangeKm < 500 || pass.MinRangeKm > 3500 {
			t.Errorf("pass %d: min range %.0f km implausible", i, pass.MinRangeKm)
		}
		if i > 0 && pass.AOS.Before(passes[i-1].LOS) {
			t.Errorf("pass %d overlaps previous", i)
		}
	}
}

func TestPassElevationAboveMaskThroughout(t *testing.T) {
	p, err := NewPropagator(leoElements())
	if err != nil {
		t.Fatal(err)
	}
	pp := NewPassPredictor(p)
	site := NewGeodeticDeg(-33.87, 151.2, 0) // Sydney
	start := leoElements().Epoch
	mask := 10 * deg2Rad
	passes := pp.Passes(site, start, start.Add(48*time.Hour), mask)
	if len(passes) == 0 {
		t.Fatal("no passes found over two days with 10° mask")
	}
	for _, pass := range passes {
		// Sample the interior; the edges are exactly at the mask.
		mid := pass.AOS.Add(pass.Duration() / 2)
		la, err := pp.LookAt(site, mid)
		if err != nil {
			t.Fatal(err)
		}
		if la.Elevation < mask-0.02 {
			t.Errorf("mid-pass elevation %.2f° below mask", la.ElevationDeg())
		}
	}
}

func TestHigherMaskShorterPasses(t *testing.T) {
	p, err := NewPropagator(leoElements())
	if err != nil {
		t.Fatal(err)
	}
	pp := NewPassPredictor(p)
	site := NewGeodeticDeg(40.44, -79.99, 0) // Pittsburgh
	start := leoElements().Epoch
	end := start.Add(24 * time.Hour)
	loose := pp.Passes(site, start, end, 0)
	strict := pp.Passes(site, start, end, 25*deg2Rad)
	if len(strict) > len(loose) {
		t.Errorf("stricter mask found more passes: %d > %d", len(strict), len(loose))
	}
	var looseTotal, strictTotal time.Duration
	for _, p := range loose {
		looseTotal += p.Duration()
	}
	for _, p := range strict {
		strictTotal += p.Duration()
	}
	if strictTotal >= looseTotal && looseTotal > 0 {
		t.Errorf("stricter mask yields more total time: %v >= %v", strictTotal, looseTotal)
	}
}

func TestPassesEmptyWindow(t *testing.T) {
	p, err := NewPropagator(leoElements())
	if err != nil {
		t.Fatal(err)
	}
	pp := NewPassPredictor(p)
	site := NewGeodeticDeg(22.3, 114.2, 0)
	start := leoElements().Epoch
	if got := pp.Passes(site, start, start, 0); got != nil {
		t.Errorf("empty window returned %d passes", len(got))
	}
	if got := pp.Passes(site, start, start.Add(-time.Hour), 0); got != nil {
		t.Errorf("inverted window returned %d passes", len(got))
	}
}

func TestDailyVisibleDuration(t *testing.T) {
	p, err := NewPropagator(leoElements())
	if err != nil {
		t.Fatal(err)
	}
	pp := NewPassPredictor(p)
	site := NewGeodeticDeg(22.3, 114.2, 0)
	start := leoElements().Epoch
	daily := pp.DailyVisibleDuration(site, start, start.Add(3*24*time.Hour), 0)
	// One LEO satellite is visible a few tens of minutes per day.
	if daily < 5*time.Minute || daily > 2*time.Hour {
		t.Errorf("daily visibility %v outside plausible band", daily)
	}
}

func TestMergeWindows(t *testing.T) {
	t0 := time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)
	mk := func(startMin, endMin int) Window {
		return Window{Start: t0.Add(time.Duration(startMin) * time.Minute), End: t0.Add(time.Duration(endMin) * time.Minute)}
	}
	merged := MergeWindows([]Window{mk(0, 10), mk(5, 15), mk(30, 40), mk(40, 45), mk(60, 61)})
	if len(merged) != 3 {
		t.Fatalf("got %d merged windows, want 3", len(merged))
	}
	if merged[0].Duration() != 15*time.Minute {
		t.Errorf("first merged window = %v, want 15m", merged[0].Duration())
	}
	if merged[1].Duration() != 15*time.Minute {
		t.Errorf("second merged window = %v, want 15m (touching windows merge)", merged[1].Duration())
	}
	if TotalDuration(merged) != 31*time.Minute {
		t.Errorf("total = %v, want 31m", TotalDuration(merged))
	}
	gaps := Gaps(merged)
	if len(gaps) != 2 || gaps[0] != 15*time.Minute || gaps[1] != 15*time.Minute {
		t.Errorf("gaps = %v", gaps)
	}
}

func TestMergeWindowsEdgeCases(t *testing.T) {
	t0 := time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)
	mk := func(startMin, endMin int) Window {
		return Window{Start: t0.Add(time.Duration(startMin) * time.Minute), End: t0.Add(time.Duration(endMin) * time.Minute)}
	}

	t.Run("fully nested", func(t *testing.T) {
		merged := MergeWindows([]Window{mk(0, 100), mk(10, 20), mk(40, 90)})
		if len(merged) != 1 {
			t.Fatalf("got %d windows, want 1", len(merged))
		}
		if merged[0].Start != t0 || merged[0].Duration() != 100*time.Minute {
			t.Errorf("nested windows did not collapse into the outer span: %+v", merged[0])
		}
	})

	t.Run("identical AOS", func(t *testing.T) {
		merged := MergeWindows([]Window{mk(0, 5), mk(0, 12), mk(0, 3)})
		if len(merged) != 1 {
			t.Fatalf("got %d windows, want 1", len(merged))
		}
		if merged[0].Duration() != 12*time.Minute {
			t.Errorf("same-start windows merged to %v, want the longest (12m)", merged[0].Duration())
		}
	})

	t.Run("zero-length windows", func(t *testing.T) {
		// A zero-length window inside or touching a real window vanishes
		// into it; an isolated one survives with zero duration and still
		// bounds gaps on both sides.
		merged := MergeWindows([]Window{mk(0, 10), mk(5, 5), mk(10, 10), mk(50, 50)})
		if len(merged) != 2 {
			t.Fatalf("got %d windows, want 2: %v", len(merged), merged)
		}
		if merged[0].Duration() != 10*time.Minute || merged[1].Duration() != 0 {
			t.Errorf("durations %v / %v, want 10m / 0", merged[0].Duration(), merged[1].Duration())
		}
		if TotalDuration(merged) != 10*time.Minute {
			t.Errorf("total %v, want 10m", TotalDuration(merged))
		}
		gaps := Gaps(merged)
		if len(gaps) != 1 || gaps[0] != 40*time.Minute {
			t.Errorf("gaps = %v, want [40m]", gaps)
		}
	})

	t.Run("all zero-length", func(t *testing.T) {
		merged := MergeWindows([]Window{mk(5, 5), mk(5, 5)})
		if len(merged) != 1 || merged[0].Duration() != 0 {
			t.Fatalf("duplicate zero-length windows: %v", merged)
		}
		if got := Gaps(merged); got != nil {
			t.Errorf("single window yielded gaps %v", got)
		}
	})
}

func TestMergeWindowsEmpty(t *testing.T) {
	if MergeWindows(nil) != nil {
		t.Error("MergeWindows(nil) != nil")
	}
	if Gaps(nil) != nil {
		t.Error("Gaps(nil) != nil")
	}
}

func TestPassesSubStepPassTerminates(t *testing.T) {
	// Regression: a pass shorter than the coarse scan step used to refine
	// its LOS to a time at or before the scan cursor, jumping the scan
	// backwards and re-detecting the same rising edge forever. With a
	// high elevation mask the above-mask span of most passes is far
	// shorter than a large coarse step, exercising exactly that geometry.
	p, err := NewPropagator(leoElements())
	if err != nil {
		t.Fatal(err)
	}
	pp := NewPassPredictor(p)
	pp.CoarseStep = 10 * time.Minute
	site := NewGeodeticDeg(22.3, 114.2, 0)
	start := leoElements().Epoch

	done := make(chan []Pass, 1)
	go func() {
		done <- pp.Passes(site, start, start.Add(3*24*time.Hour), 45*deg2Rad)
	}()
	select {
	case passes := <-done:
		for i, pass := range passes {
			if !pass.LOS.After(pass.AOS) {
				t.Errorf("pass %d: inverted window", i)
			}
			if i > 0 && pass.AOS.Before(passes[i-1].AOS) {
				t.Errorf("pass %d out of order", i)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Passes did not terminate: sub-step pass livelock regression")
	}
}

func TestPassDopplerProfile(t *testing.T) {
	// During a pass, range rate goes from negative (approaching) through
	// zero near TCA to positive (receding) — this drives the Doppler S-curve.
	p, err := NewPropagator(leoElements())
	if err != nil {
		t.Fatal(err)
	}
	pp := NewPassPredictor(p)
	site := NewGeodeticDeg(22.3, 114.2, 0)
	start := leoElements().Epoch
	passes := pp.Passes(site, start, start.Add(24*time.Hour), 5*deg2Rad)
	if len(passes) == 0 {
		t.Skip("no pass above 5° in the first day")
	}
	pass := passes[0]
	early, err := pp.LookAt(site, pass.AOS.Add(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	late, err := pp.LookAt(site, pass.LOS.Add(-10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if early.RangeRate >= 0 {
		t.Errorf("early pass range rate %.3f km/s, want approaching (<0)", early.RangeRate)
	}
	if late.RangeRate <= 0 {
		t.Errorf("late pass range rate %.3f km/s, want receding (>0)", late.RangeRate)
	}
	// Peak |range rate| for LEO is bounded by the orbital speed.
	if math.Abs(early.RangeRate) > 8 || math.Abs(late.RangeRate) > 8 {
		t.Error("range rate exceeds orbital speed")
	}
}
