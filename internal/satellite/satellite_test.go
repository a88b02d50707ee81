package satellite

import (
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/orbit"
)

var epoch = time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)

func testGateway(t *testing.T) *Gateway {
	t.Helper()
	c := constellation.Tianqi(epoch)
	prop, err := orbit.NewPropagator(c.Sats[0])
	if err != nil {
		t.Fatal(err)
	}
	return NewGateway(prop, c.BeaconInterval, 100)
}

func TestBufferFIFO(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 3; i++ {
		if !b.Push(StoredPacket{SeqID: uint64(i)}) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if b.Len() != 3 || b.Stored != 3 {
		t.Errorf("len=%d stored=%d", b.Len(), b.Stored)
	}
	// Fourth push drops.
	if b.Push(StoredPacket{SeqID: 3}) {
		t.Error("over-capacity push accepted")
	}
	if b.Dropped != 1 {
		t.Errorf("dropped = %d", b.Dropped)
	}
	out := b.Flush()
	if len(out) != 3 || out[0].SeqID != 0 || out[2].SeqID != 2 {
		t.Errorf("flush = %v", out)
	}
	if b.Len() != 0 {
		t.Error("buffer not empty after flush")
	}
	// After flushing there is room again.
	if !b.Push(StoredPacket{SeqID: 9}) {
		t.Error("post-flush push rejected")
	}
}

func TestBufferUnbounded(t *testing.T) {
	b := NewBuffer(0)
	for i := 0; i < 1000; i++ {
		if !b.Push(StoredPacket{SeqID: uint64(i)}) {
			t.Fatal("unbounded buffer rejected a packet")
		}
	}
	if b.Dropped != 0 || b.Len() != 1000 {
		t.Errorf("dropped=%d len=%d", b.Dropped, b.Len())
	}
}

func TestBeaconTimesGrid(t *testing.T) {
	g := testGateway(t)
	start := epoch.Add(90 * time.Minute)
	end := start.Add(5 * time.Minute)
	times := g.AppendBeaconTimes(nil, start, end)
	// 5 min / 20 s = 15 beacons.
	if len(times) != 15 {
		t.Fatalf("beacons = %d, want 15", len(times))
	}
	for i, bt := range times {
		if bt.Before(start) || !bt.Before(end) {
			t.Errorf("beacon %d at %v outside window", i, bt)
		}
		// Grid is anchored at the epoch: offsets are exact multiples.
		if off := bt.Sub(epoch) % g.BeaconInterval; off != 0 {
			t.Errorf("beacon %d off-grid by %v", i, off)
		}
	}
}

func TestBeaconTimesStableAcrossCalls(t *testing.T) {
	// Querying overlapping windows must produce the same grid instants —
	// the property that makes effective-window measurements well defined.
	g := testGateway(t)
	a := g.AppendBeaconTimes(nil, epoch.Add(10*time.Minute), epoch.Add(20*time.Minute))
	b := g.AppendBeaconTimes(nil, epoch.Add(15*time.Minute), epoch.Add(25*time.Minute))
	seen := map[time.Time]bool{}
	for _, t1 := range a {
		seen[t1] = true
	}
	overlapCount := 0
	for _, t2 := range b {
		if t2.Before(epoch.Add(20 * time.Minute)) {
			overlapCount++
			if !seen[t2] {
				t.Fatalf("beacon %v in second query missing from first", t2)
			}
		}
	}
	if overlapCount == 0 {
		t.Fatal("no overlapping beacons to compare")
	}
}

func TestBeaconTimesDegenerate(t *testing.T) {
	g := testGateway(t)
	if got := g.AppendBeaconTimes(nil, epoch, epoch); got != nil {
		t.Error("empty window produced beacons")
	}
	g.BeaconInterval = 0
	if got := g.AppendBeaconTimes(nil, epoch, epoch.Add(time.Hour)); got != nil {
		t.Error("zero interval produced beacons")
	}
}

func TestGeometryAt(t *testing.T) {
	g := testGateway(t)
	site := orbit.NewGeodeticDeg(22.3, 114.2, 0)
	la, err := g.GeometryAt(orbit.NewObserver(site), epoch.Add(30*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if la.RangeKm < 800 || la.RangeKm > 14000 {
		t.Errorf("range = %.0f km implausible", la.RangeKm)
	}
	alt, err := g.AltitudeAt(epoch.Add(30 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if alt < 800 || alt > 910 {
		t.Errorf("altitude = %.1f km, want Tianqi-A band", alt)
	}
}

func TestGatewayString(t *testing.T) {
	g := testGateway(t)
	if g.String() == "" || g.NoradID != 91000 {
		t.Errorf("gateway identity: %v", g)
	}
}
