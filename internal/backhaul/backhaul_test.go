package backhaul

import (
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/sim"
)

var epoch = time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)

func TestTianqiGroundSegmentShape(t *testing.T) {
	g := TianqiGroundSegment()
	if len(g.Stations) != 12 {
		t.Fatalf("stations = %d, want 12 (§2.3)", len(g.Stations))
	}
	// All stations are in China (rough bounding box).
	for i, st := range g.Stations {
		lat, lon := st.LatDeg(), st.LonDeg()
		if lat < 18 || lat > 54 || lon < 73 || lon > 135 {
			t.Errorf("station %d at (%.1f, %.1f) outside China", i, lat, lon)
		}
	}
	if g.DrainDuration <= 0 {
		t.Error("drain duration not positive")
	}
}

func TestDownlinkWindowsUpThinsWindows(t *testing.T) {
	g := TianqiGroundSegment()
	c := constellation.Tianqi(epoch)
	prop, err := orbit.NewPropagator(c.Sats[0])
	if err != nil {
		t.Fatal(err)
	}
	end := epoch.Add(24 * time.Hour)
	eph := orbit.NewEphemeris(prop, epoch, end, time.Minute)
	base := g.DownlinkWindows(eph, epoch, end, time.Minute)
	if len(base) == 0 {
		t.Fatal("no baseline downlink windows over a day")
	}
	var baseTotal time.Duration
	for _, w := range base {
		baseTotal += w.End.Sub(w.Start)
	}
	// All stations down: no windows.
	if got := g.DownlinkWindowsUp(eph, epoch, end, time.Minute, func(int, time.Time) bool { return false }); len(got) != 0 {
		t.Fatalf("windows survived a full ground-segment outage: %v", got)
	}
	// Half the stations down: coverage can only shrink.
	thinned := g.DownlinkWindowsUp(eph, epoch, end, time.Minute, func(i int, _ time.Time) bool { return i%2 == 0 })
	var thinTotal time.Duration
	for _, w := range thinned {
		thinTotal += w.End.Sub(w.Start)
	}
	if thinTotal > baseTotal {
		t.Fatalf("outages grew downlink coverage: %v > %v", thinTotal, baseTotal)
	}
	// Nil predicate is identical to the unrestricted call.
	same := g.DownlinkWindowsUp(eph, epoch, end, time.Minute, nil)
	if len(same) != len(base) {
		t.Fatalf("nil predicate changed the windows: %d vs %d", len(same), len(base))
	}
}

func TestDeliveryModel(t *testing.T) {
	m := NewDeliveryModel(sim.NewRNG(1, "deliver"))
	down := epoch.Add(2 * time.Hour)
	var total time.Duration
	const n = 2000
	for i := 0; i < n; i++ {
		at := m.DeliverAt(down)
		if !at.After(down) {
			t.Fatal("delivery not after downlink")
		}
		total += at.Sub(down)
	}
	mean := total / n
	// Exponential with 4-minute mean plus the internet hop.
	if mean < 3*time.Minute || mean > 5*time.Minute {
		t.Errorf("mean delivery latency = %v, want ≈4m12s", mean)
	}
}

func TestLTEBackhaulLatency(t *testing.T) {
	b := NewLTEBackhaul(sim.NewRNG(2, "lte"))
	rx := epoch
	var total time.Duration
	const n = 2000
	for i := 0; i < n; i++ {
		at := b.DeliverAt(rx)
		d := at.Sub(rx)
		if d < time.Millisecond {
			t.Fatal("LTE latency below clamp")
		}
		total += d
	}
	mean := total / n
	// LTE hop (~120 ms) plus the network/application-server processing
	// (mean 8 s) yields the paper's "0.2 minute" terrestrial latency.
	if mean < 4*time.Second || mean > 20*time.Second {
		t.Errorf("mean LTE+server latency = %v, want ≈8s (paper: 0.2 min)", mean)
	}
	// With server processing disabled the pure radio+LTE path is ms-scale.
	b.ServerProcessing = 0
	var radioOnly time.Duration
	for i := 0; i < n; i++ {
		radioOnly += b.DeliverAt(rx).Sub(rx)
	}
	if mean := radioOnly / n; mean < 80*time.Millisecond || mean > 200*time.Millisecond {
		t.Errorf("pure LTE latency = %v, want ≈120ms", mean)
	}
}

func TestLatencyScalesVsSatellite(t *testing.T) {
	// The structural reason for the paper's 643× latency gap: terrestrial
	// delivery is sub-second while satellite delivery waits for a ground
	// segment pass plus minutes of processing.
	lte := NewLTEBackhaul(sim.NewRNG(3, "lte"))
	dm := NewDeliveryModel(sim.NewRNG(3, "dc"))
	const n = 500
	var terr, sat time.Duration
	for i := 0; i < n; i++ {
		terr += lte.DeliverAt(epoch).Sub(epoch)
		sat += dm.DeliverAt(epoch).Sub(epoch)
	}
	if sat < 10*terr {
		t.Errorf("satellite delivery %v not ≫ terrestrial %v (means over %d)", sat/n, terr/n, n)
	}
}
