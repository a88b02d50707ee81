package netgraph

import (
	"context"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/backhaul"
	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/orbit"
)

// tianqiDay builds the routing campaign's default graph: Tianqi and its
// 12-station ground segment over one day plus the 4 h delivery grace, at
// the default snapshot cadence, every snapshot built.
func tianqiDay(tb testing.TB) *Graph {
	tb.Helper()
	props, err := constellation.Tianqi(testEpoch).Propagators()
	if err != nil {
		tb.Fatal(err)
	}
	end := testEpoch.Add(28 * time.Hour)
	grid := orbit.NewEphemerisGrid(props, testEpoch, end, orbit.EphemerisConfig{ScanStep: time.Minute})
	grid.PropagateAll()
	g, err := New(grid, backhaul.TianqiGroundSegment().Stations, testEpoch, end, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := g.BuildAll(context.Background(), nil); err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestEarliestAllocatesOnlyItsPath pins the unboxed search heap: a query
// on a warmed search allocates the delivered path and nothing else.
func TestEarliestAllocatesOnlyItsPath(t *testing.T) {
	g := tianqiDay(t)
	search := NewDeliverySearch(g)
	origin := testEpoch.Add(3 * time.Hour)
	d, ok := search.Earliest(0, origin)
	if !ok || len(d.Path) == 0 {
		t.Fatal("satellite 0 delivers nothing: the pin would be vacuous")
	}
	if allocs := testing.AllocsPerRun(20, func() { search.Earliest(0, origin) }); allocs != 1 {
		t.Fatalf("Earliest allocates %v times per call, want 1 (its path)", allocs)
	}
}

// BenchmarkDeliverySearch routes the routing campaign's default packets
// over one Tianqi day: every satellite, one packet each 30 minutes at the
// campaign's per-satellite offset, each answered by an earliest-delivery
// search on one search object per satellite.
func BenchmarkDeliverySearch(b *testing.B) {
	g := tianqiDay(b)
	const interval = 30 * time.Minute
	sats := g.grid.Sats()
	end := testEpoch.Add(24 * time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	delivered := 0
	for i := 0; i < b.N; i++ {
		delivered = 0
		for sat := 0; sat < sats; sat++ {
			search := NewDeliverySearch(g)
			offset := interval * time.Duration(sat) / time.Duration(sats)
			for origin := testEpoch.Add(offset); origin.Before(end); origin = origin.Add(interval) {
				if _, ok := search.Earliest(sat, origin); ok {
					delivered++
				}
			}
		}
	}
	b.ReportMetric(float64(delivered), "delivered/op")
}
