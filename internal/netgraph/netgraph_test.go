package netgraph

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/orbit"
)

var testEpoch = time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)

// testStations is a small global ground segment for routing tests.
func testStations() []orbit.Geodetic {
	return []orbit.Geodetic{
		orbit.NewGeodeticDeg(40.07, 116.60, 0.05),
		orbit.NewGeodeticDeg(-33.87, 151.21, 0.02),
		orbit.NewGeodeticDeg(51.51, -0.13, 0.01),
	}
}

// buildTestGraph propagates a Mega shell over span and builds every
// snapshot.
func buildTestGraph(t *testing.T, sats int, span time.Duration, cfg Config) *Graph {
	t.Helper()
	cons := constellation.Mega(testEpoch, sats)
	props, err := cons.Propagators()
	if err != nil {
		t.Fatal(err)
	}
	end := testEpoch.Add(span)
	grid := orbit.NewEphemerisGrid(props, testEpoch, end, orbit.EphemerisConfig{ScanStep: time.Minute})
	grid.PropagateAll()
	g, err := New(grid, testStations(), testEpoch, end, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.BuildAll(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	return g
}

// satPos recomputes satellite i's ECEF position at snapshot k's instant
// from the grid, independently of Build.
func satPos(t *testing.T, g *Graph, k, i int) orbit.Vec3 {
	t.Helper()
	r, _, err := g.grid.Sat(i).PositionECEF(g.snaps[k].At)
	if err != nil {
		t.Fatalf("snapshot %d: satellite %d does not propagate: %v", k, i, err)
	}
	return r
}

// nodePos is satPos extended to station nodes.
func nodePos(t *testing.T, g *Graph, k, node int) orbit.Vec3 {
	t.Helper()
	if g.IsStation(node) {
		return g.stECEF[g.Station(node)]
	}
	return satPos(t, g, k, node)
}

// edgeDelay reports whether the edge a→b is live in snapshot k, and its
// delay when it is.
func edgeDelay(g *Graph, k, a, b int) (delaySec float64, live bool) {
	s := &g.snaps[k]
	for e := s.offsets[a]; e < s.offsets[a+1]; e++ {
		if int(s.nbr[e]) == b {
			return s.delay[e], true
		}
	}
	return 0, false
}

// checkEdge asserts that edge a–b of snapshot k, with the given delay,
// satisfies Build's predicates on positions recomputed from the grid:
// delay = distance/c + hop, the station's elevation mask for a downlink,
// and the ISL range budget and Earth-limb clearance for an ISL. It reports
// whether the edge is an ISL.
func checkEdge(t *testing.T, g *Graph, k, a, b int, delaySec float64) bool {
	t.Helper()
	pa, pb := nodePos(t, g, k, a), nodePos(t, g, k, b)
	distKm := pa.Sub(pb).Norm()
	if want := distKm/SpeedOfLightKmPerSec + g.cfg.HopProcessing.Seconds(); math.Abs(delaySec-want) > 1e-12 {
		t.Fatalf("snapshot %d edge %d-%d delay %v, want %v", k, a, b, delaySec, want)
	}
	if g.IsStation(a) || g.IsStation(b) {
		sat, st := a, b
		if g.IsStation(sat) {
			sat, st = b, a
		}
		if !g.masks[g.Station(st)].Above(nodePos(t, g, k, sat)) {
			t.Fatalf("snapshot %d: station edge %d-%d below the elevation mask", k, a, b)
		}
		return false
	}
	if distKm > g.cfg.MaxISLRangeKm {
		t.Fatalf("snapshot %d: ISL %d-%d length %.1f km exceeds budget", k, a, b, distKm)
	}
	if occluded(pa, pb, orbit.EarthRadiusKm+occlusionAltKm) {
		t.Fatalf("snapshot %d: ISL %d-%d crosses the Earth limb", k, a, b)
	}
	return true
}

func TestWalkerNeighborsRingAndCrossPlane(t *testing.T) {
	// Two planes of four satellites in one shell: a 2×4 Walker grid.
	els := make([]orbit.Elements, 0, 8)
	for p := 0; p < 2; p++ {
		for s := 0; s < 4; s++ {
			els = append(els, orbit.Elements{
				NoradID:     100 + p*4 + s,
				Inclination: 53 * math.Pi / 180,
				RAAN:        float64(p) * math.Pi, // two planes, far apart
				MeanAnomaly: 2 * math.Pi * float64(s) / 4,
				MeanMotion:  0.065,
			})
		}
	}
	cand := walkerNeighbors(els)

	has := func(a, b int) bool {
		if a > b {
			a, b = b, a
		}
		for _, c := range cand {
			if int(c[0]) == a && int(c[1]) == b {
				return true
			}
		}
		return false
	}
	// +grid: each plane is a ring of 4.
	for p := 0; p < 2; p++ {
		base := p * 4
		for s := 0; s < 4; s++ {
			if !has(base+s, base+(s+1)%4) {
				t.Errorf("missing intra-plane ring edge %d-%d", base+s, base+(s+1)%4)
			}
		}
	}
	// +cross-plane: every satellite links to its same-anomaly twin in the
	// other plane (the nearest-anomaly neighbor in this symmetric grid).
	for s := 0; s < 4; s++ {
		if !has(s, 4+s) {
			t.Errorf("missing cross-plane edge %d-%d", s, 4+s)
		}
	}
	// No intra-plane chords or diagonal cross links.
	if has(0, 2) || has(1, 3) {
		t.Error("unexpected intra-plane chord in candidate set")
	}
	// Deterministic: repeated derivation is identical.
	if again := walkerNeighbors(els); !reflect.DeepEqual(cand, again) {
		t.Error("walkerNeighbors is not deterministic")
	}
	// Sorted, a < b, unique.
	seen := map[[2]int32]bool{}
	for i, c := range cand {
		if c[0] >= c[1] {
			t.Fatalf("edge %v not in a<b order", c)
		}
		if seen[c] {
			t.Fatalf("duplicate edge %v", c)
		}
		seen[c] = true
		if i > 0 && (cand[i-1][0] > c[0] || (cand[i-1][0] == c[0] && cand[i-1][1] >= c[1])) {
			t.Fatalf("candidate list not sorted at %d", i)
		}
	}
}

func TestSinglePlaneHasNoCrossLinks(t *testing.T) {
	els := make([]orbit.Elements, 5)
	for s := range els {
		els[s] = orbit.Elements{
			NoradID:     200 + s,
			Inclination: 97.6 * math.Pi / 180,
			RAAN:        1.0,
			MeanAnomaly: 2 * math.Pi * float64(s) / 5,
			MeanMotion:  0.065,
		}
	}
	cand := walkerNeighbors(els)
	if len(cand) != 5 { // ring of 5, nothing else
		t.Fatalf("single plane of 5 yields %d candidate edges, want 5", len(cand))
	}
}

func TestOccluded(t *testing.T) {
	limb := orbit.EarthRadiusKm + occlusionAltKm
	a := orbit.Vec3{X: 7000, Y: 0, Z: 0}
	cases := []struct {
		name string
		b    orbit.Vec3
		want bool
	}{
		{"antipodal through Earth", orbit.Vec3{X: -7000, Y: 0, Z: 0}, true},
		{"same position", a, false},
		{"nearby same orbit", orbit.Vec3{X: 6900, Y: 1000, Z: 0}, false},
		// 90° apart at 7000 km radius the chord's midpoint sits at
		// 7000/√2 ≈ 4950 km — inside the Earth.
		{"quarter orbit apart", orbit.Vec3{X: 0, Y: 7000, Z: 0}, true},
		{"short chord above limb", orbit.Vec3{X: 6800, Y: 2000, Z: 0}, false},
		{"grazing below limb", orbit.Vec3{X: -7000, Y: 2 * 6400, Z: 0}, true},
	}
	for _, tc := range cases {
		if got := occluded(a, tc.b, limb); got != tc.want {
			t.Errorf("occluded(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestBuildEdgesRespectPredicates(t *testing.T) {
	g := buildTestGraph(t, 40, 2*time.Hour, Config{})
	checkedISL, checkedDown := 0, 0
	for k := 0; k < g.Snapshots(); k++ {
		s := &g.snaps[k]
		for v := 0; v < g.Nodes(); v++ {
			for e := s.offsets[v]; e < s.offsets[v+1]; e++ {
				if checkEdge(t, g, k, v, int(s.nbr[e]), s.delay[e]) {
					checkedISL++
				} else {
					checkedDown++
				}
			}
		}
	}
	if checkedISL == 0 || checkedDown == 0 {
		t.Fatalf("vacuous: %d ISL and %d downlink edges checked", checkedISL, checkedDown)
	}
}

func TestParallelBuildBitIdenticalToSerial(t *testing.T) {
	cons := constellation.Mega(testEpoch, 40)
	props, err := cons.Propagators()
	if err != nil {
		t.Fatal(err)
	}
	end := testEpoch.Add(2 * time.Hour)
	grid := orbit.NewEphemerisGrid(props, testEpoch, end, orbit.EphemerisConfig{ScanStep: time.Minute})
	grid.PropagateAll()

	build := func(procs int) *Graph {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		g, err := New(grid, testStations(), testEpoch, end, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !g.ParallelBuildSafe() {
			t.Fatal("interpolated grid should allow parallel builds")
		}
		if err := g.BuildAll(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		return g
	}
	serial, parallel := build(1), build(4)
	for k := 0; k < serial.Snapshots(); k++ {
		a, b := &serial.snaps[k], &parallel.snaps[k]
		if !reflect.DeepEqual(a.offsets, b.offsets) || !reflect.DeepEqual(a.nbr, b.nbr) ||
			!reflect.DeepEqual(a.delay, b.delay) || a.liveISL != b.liveISL {
			t.Fatalf("snapshot %d differs between serial and parallel build", k)
		}
	}
}

// TestDeliveryPathsRespectSnapshots is the path-validity property test:
// every hop of every delivery must traverse an edge that is live in the
// snapshot it is tagged with and meets Build's predicates there (see
// checkEdge), and hop snapshots must be non-decreasing.
func TestDeliveryPathsRespectSnapshots(t *testing.T) {
	g := buildTestGraph(t, 60, 3*time.Hour, Config{})
	search := NewDeliverySearch(g)
	delivered, hops := 0, 0
	for sat := 0; sat < g.grid.Sats(); sat++ {
		for _, offset := range []time.Duration{0, 47 * time.Minute, 2 * time.Hour} {
			origin := testEpoch.Add(offset)
			d, ok := search.Earliest(sat, origin)
			if !ok {
				continue
			}
			delivered++
			if d.At.Before(origin) {
				t.Fatalf("sat %d: delivery %v precedes origin %v", sat, d.At, origin)
			}
			if len(d.Path) == 0 {
				t.Fatalf("sat %d: delivered with an empty path", sat)
			}
			if int(d.Path[0].From) != sat {
				t.Fatalf("sat %d: path starts at node %d", sat, d.Path[0].From)
			}
			last := d.Path[len(d.Path)-1]
			if !g.IsStation(int(last.To)) || g.Station(int(last.To)) != d.Station {
				t.Fatalf("sat %d: path ends at node %d, station %d", sat, last.To, d.Station)
			}
			prevSnap := int32(g.SnapshotFor(origin))
			for _, h := range d.Path {
				hops++
				k := int(h.Snapshot)
				if k < g.SnapshotFor(origin) || k >= g.Snapshots() {
					t.Fatalf("sat %d: hop snapshot %d out of range", sat, k)
				}
				if h.Snapshot < prevSnap {
					t.Fatalf("sat %d: hop snapshots decrease (%d after %d)", sat, h.Snapshot, prevSnap)
				}
				prevSnap = h.Snapshot
				delaySec, live := edgeDelay(g, k, int(h.From), int(h.To))
				if !live {
					t.Fatalf("sat %d: hop %d-%d not live in snapshot %d", sat, h.From, h.To, k)
				}
				checkEdge(t, g, k, int(h.From), int(h.To), delaySec)
			}
		}
	}
	if delivered == 0 {
		t.Fatal("no deliveries — vacuous property test")
	}
	t.Logf("validated %d hops over %d deliveries", hops, delivered)
}

// TestDeliverySearchReusable guards the scratch-state reset: interleaved
// queries on one search object must match fresh-object answers.
func TestDeliverySearchReusable(t *testing.T) {
	g := buildTestGraph(t, 40, 2*time.Hour, Config{})
	shared := NewDeliverySearch(g)
	for sat := 0; sat < g.grid.Sats(); sat += 7 {
		for _, offset := range []time.Duration{90 * time.Minute, 5 * time.Minute} { // deliberately out of order
			origin := testEpoch.Add(offset)
			got, okG := shared.Earliest(sat, origin)
			want, okW := NewDeliverySearch(g).Earliest(sat, origin)
			if okG != okW || !reflect.DeepEqual(got, want) {
				t.Fatalf("sat %d offset %v: reused search differs from fresh search", sat, offset)
			}
		}
	}
}

// TestNoISLsDegradesToStoreAndForward: with every ISL churned out the
// earliest delivery uses zero ISL hops — pure store-and-forward — and is
// never earlier than the ISL-enabled delivery.
func TestNoISLsDegradesToStoreAndForward(t *testing.T) {
	with := buildTestGraph(t, 40, 3*time.Hour, Config{})
	without := buildTestGraph(t, 40, 3*time.Hour, Config{
		ISLUp: func(a, b int, at time.Time) bool { return false },
	})
	for k := 0; k < without.Snapshots(); k++ {
		if without.LiveISLs(k) != 0 {
			t.Fatalf("snapshot %d still has %d live ISLs under always-down churn", k, without.LiveISLs(k))
		}
	}
	sWith, sWithout := NewDeliverySearch(with), NewDeliverySearch(without)
	compared := 0
	for sat := 0; sat < with.grid.Sats(); sat++ {
		origin := testEpoch.Add(11 * time.Minute)
		dw, okw := sWith.Earliest(sat, origin)
		do, oko := sWithout.Earliest(sat, origin)
		if oko {
			if do.ISLHops(without) != 0 {
				t.Fatalf("sat %d: ISL hop on a graph with no live ISLs", sat)
			}
			if len(do.Path) != 1 {
				t.Fatalf("sat %d: store-and-forward path has %d hops, want 1", sat, len(do.Path))
			}
		}
		if okw && oko {
			compared++
			if dw.At.After(do.At) {
				t.Fatalf("sat %d: ISL-enabled delivery %v later than store-and-forward %v", sat, dw.At, do.At)
			}
		}
		if !okw && oko {
			t.Fatalf("sat %d: store-and-forward delivered but relay with ISLs did not", sat)
		}
	}
	if compared == 0 {
		t.Fatal("no satellite delivered under both graphs — vacuous comparison")
	}
}

func TestSnapshotForClamps(t *testing.T) {
	g := buildTestGraph(t, 10, time.Hour, Config{})
	if k := g.SnapshotFor(testEpoch.Add(-time.Hour)); k != 0 {
		t.Errorf("before span: snapshot %d, want 0", k)
	}
	if k := g.SnapshotFor(testEpoch.Add(30 * time.Minute)); k != 30 {
		t.Errorf("mid span: snapshot %d, want 30", k)
	}
	if k := g.SnapshotFor(testEpoch.Add(48 * time.Hour)); k != g.Snapshots()-1 {
		t.Errorf("after span: snapshot %d, want %d", k, g.Snapshots()-1)
	}
}
