package backhaul

import (
	"reflect"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/orbit"
)

func tianqiProp(t *testing.T) *orbit.Propagator {
	t.Helper()
	c := constellation.Tianqi(epoch)
	p, err := orbit.NewPropagator(c.Sats[0])
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDownlinkWindowsStructure(t *testing.T) {
	g := TianqiGroundSegment()
	prop := tianqiProp(t)
	end := epoch.Add(24 * time.Hour)
	windows := g.DownlinkWindows(prop, epoch, end, time.Minute)
	if len(windows) == 0 {
		t.Fatal("a 49.97° Tianqi satellite must overfly China within a day")
	}
	for i, w := range windows {
		if !w.End.After(w.Start) {
			t.Errorf("window %d inverted", i)
		}
		if w.Start.Before(epoch) || w.End.After(end) {
			t.Errorf("window %d outside query range", i)
		}
		if i > 0 && !w.Start.After(windows[i-1].End) {
			t.Errorf("window %d overlaps previous", i)
		}
		// A pass over a continental ground segment lasts minutes to tens
		// of minutes, far below a full orbit.
		if w.Duration() > 45*time.Minute {
			t.Errorf("window %d lasts %v — implausibly long", i, w.Duration())
		}
	}
}

func TestDownlinkWindowsAgreeWithPassPredictor(t *testing.T) {
	// The cheap subpoint-stepping method must find downlink capability at
	// times when the precise pass predictor sees the satellite above the
	// mask over a station.
	g := TianqiGroundSegment()
	prop := tianqiProp(t)
	end := epoch.Add(12 * time.Hour)
	windows := g.DownlinkWindows(prop, epoch, end, time.Minute)
	if len(windows) == 0 {
		t.Skip("no windows in half a day")
	}
	pp := orbit.NewPassPredictor(prop)
	mid := windows[0].Start.Add(windows[0].Duration() / 2)
	// At the middle of a claimed window, at least one station must see
	// the satellite above (or near) the mask. The ground-distance proxy
	// is conservative within a degree or two.
	best := -1.0
	for _, st := range g.Stations {
		la, err := pp.LookAt(st, mid)
		if err != nil {
			continue
		}
		if la.ElevationDeg() > best {
			best = la.ElevationDeg()
		}
	}
	if best < 2 {
		t.Errorf("mid-window best elevation %.1f°, want near/above the 5° mask", best)
	}
}

func TestDownlinkWindowsDegenerate(t *testing.T) {
	g := TianqiGroundSegment()
	prop := tianqiProp(t)
	if w := g.DownlinkWindows(prop, epoch, epoch, time.Minute); w != nil {
		t.Error("empty range produced windows")
	}
	empty := GroundSegment{}
	if w := empty.DownlinkWindows(prop, epoch, epoch.Add(time.Hour), time.Minute); w != nil {
		t.Error("station-less segment produced windows")
	}
	// Zero step falls back to a minute.
	end := epoch.Add(6 * time.Hour)
	want := g.DownlinkWindows(prop, epoch, end, time.Minute)
	if len(want) == 0 {
		t.Fatal("no one-minute windows in six hours to compare the zero step against")
	}
	if got := g.DownlinkWindows(prop, epoch, end, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("step 0 windows %v, want the one-minute windows %v", got, want)
	}
}

func TestMaxGroundDistance(t *testing.T) {
	g := TianqiGroundSegment()
	if d := g.maxGroundDistanceKm(0); d != 0 {
		t.Errorf("zero altitude distance = %v", d)
	}
	d500 := g.maxGroundDistanceKm(500)
	d900 := g.maxGroundDistanceKm(900)
	if d500 <= 0 || d900 <= d500 {
		t.Errorf("ground distance not increasing: %v, %v", d500, d900)
	}
	// 5° mask at 860 km: λ ≈ 24°, ground distance ≈ 2700 km.
	d860 := g.maxGroundDistanceKm(860)
	if d860 < 2400 || d860 > 3000 {
		t.Errorf("860 km ground distance = %.0f km, want ≈2700", d860)
	}
}

func TestScheduleDrains(t *testing.T) {
	mk := func(startMin, durMin int) orbit.Window {
		return orbit.Window{
			Start: epoch.Add(time.Duration(startMin) * time.Minute),
			End:   epoch.Add(time.Duration(startMin+durMin) * time.Minute),
		}
	}
	windows := []orbit.Window{mk(0, 10), mk(30, 10), mk(200, 10), mk(230, 10)}
	drains := ScheduleDrains(windows, 90*time.Minute)
	// Drain at end of w0 (t=10); w1 end (t=40) is within 90 min → skipped;
	// w2 end (t=210) booked; w3 end (t=240) within 90 of 210 → skipped.
	if len(drains) != 2 {
		t.Fatalf("drains = %d, want 2 (%v)", len(drains), drains)
	}
	if !drains[0].Equal(epoch.Add(10 * time.Minute)) {
		t.Errorf("first drain at %v", drains[0])
	}
	if !drains[1].Equal(epoch.Add(210 * time.Minute)) {
		t.Errorf("second drain at %v", drains[1])
	}
	if got := ScheduleDrains(nil, time.Hour); got != nil {
		t.Error("empty windows produced drains")
	}
	// Zero gap books every window end.
	if got := ScheduleDrains(windows, 0); len(got) != len(windows) {
		t.Errorf("zero-gap drains = %d", len(got))
	}
}
