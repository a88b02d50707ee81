// Package netgraph builds the time-varying satellite network graph the
// routing campaign walks: satellites (rows of a shared orbit.EphemerisGrid)
// and ground stations are nodes, inter-satellite links and downlink
// opportunities are edges, and connectivity is decided per time step by
// geometric predicates — slant range against the ISL terminal budget,
// Earth-limb occlusion for satellite pairs, the elevation mask for
// satellite→station links — composed with fault-injected link churn.
//
// The graph is time-expanded: the campaign span is cut into fixed-cadence
// snapshots, each holding a compact CSR adjacency whose edge weights are
// propagation plus per-hop processing delay. Snapshots depend only on the
// shared (immutable once propagated) ephemeris samples and write only
// their own slot, so they build in parallel with bit-identical results to
// a serial build. On top of the snapshots, route.go answers time-expanded
// earliest-delivery searches.
package netgraph

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/sim"
	"github.com/sinet-io/sinet/internal/tracing"
)

// SpeedOfLightKmPerSec is c in the units the delay weights use.
const SpeedOfLightKmPerSec = 299792.458

// Defaults for Config's zero values.
const (
	DefaultSnapshotStep  = time.Minute
	DefaultMaxISLRangeKm = 5000.0
	DefaultHopProcessing = 10 * time.Millisecond
	defaultMinElevation  = 5 * math.Pi / 180
)

// occlusionAltKm is the grazing altitude of the Earth-limb occlusion test:
// an ISL whose line of sight dips below EarthRadiusKm + occlusionAltKm is
// blocked, which keeps links out of the bulk atmosphere.
const occlusionAltKm = 80.0

// Config parameterizes graph construction. The zero value is usable: every
// field defaults as documented.
type Config struct {
	// SnapshotStep is the topology cadence: one snapshot every step.
	// Defaults to one minute — coarser than the ephemeris ScanStep used by
	// the pass search, because link-level connectivity changes on the
	// minutes scale while pass boundaries need sub-minute precision.
	SnapshotStep time.Duration

	// MaxISLRangeKm is the ISL terminal range budget: candidate links
	// longer than this are down regardless of visibility. Defaults to
	// 5000 km, a typical optical crosslink figure.
	MaxISLRangeKm float64

	// HopProcessing is the per-hop switching/processing delay added to
	// every edge's propagation delay. Defaults to 10 ms.
	HopProcessing time.Duration

	// MinElevationRad is the satellite→station elevation mask. Defaults
	// to 5°, the operator teleport figure.
	MinElevationRad float64

	// ISLUp, when non-nil, gates each candidate ISL by fault state: the
	// link between NORAD IDs a and b exists at time t only when
	// ISLUp(a, b, t) is true. This is where fault.Config.LinkSchedule
	// churn plugs in.
	ISLUp func(noradA, noradB int, at time.Time) bool

	// StationUp, when non-nil, gates each ground station by fault state
	// (fault.Config.DrainSchedule for the operator teleports).
	StationUp func(station int, at time.Time) bool
}

func (c *Config) setDefaults() {
	if c.SnapshotStep <= 0 {
		c.SnapshotStep = DefaultSnapshotStep
	}
	if c.MaxISLRangeKm <= 0 {
		c.MaxISLRangeKm = DefaultMaxISLRangeKm
	}
	if c.HopProcessing <= 0 {
		c.HopProcessing = DefaultHopProcessing
	}
	if c.MinElevationRad == 0 {
		c.MinElevationRad = defaultMinElevation
	}
}

// Snapshot is the network at one instant: a CSR adjacency over the graph's
// nodes (satellites first, then stations). Edges are stored in both
// directions. A built snapshot is immutable.
type Snapshot struct {
	At time.Time

	offsets []int32   // len nodes+1
	nbr     []int32   // neighbor node index
	delay   []float64 // edge delay, seconds (propagation + processing)

	liveISL int // live candidate ISLs in this snapshot
}

// Graph is the time-expanded network over one campaign span.
type Graph struct {
	cfg      Config
	grid     *orbit.EphemerisGrid
	stations []orbit.Geodetic
	stECEF   []orbit.Vec3
	masks    []orbit.GroundMask
	norad    []int // per satellite row

	start time.Time
	snaps []Snapshot

	// cand is the candidate ISL edge list from the Walker neighbor
	// policy: +grid (intra-plane ring) and +cross-plane (nearest-anomaly
	// neighbor in the adjacent plane), as satellite index pairs a<b.
	cand [][2]int32
}

// New builds the graph skeleton over [start, end): candidate ISL edges from
// the Walker neighbor policy and one empty snapshot per SnapshotStep.
// Snapshots are filled by Build/BuildAll after the grid rows have been
// propagated. The grid must cover the span.
func New(grid *orbit.EphemerisGrid, stations []orbit.Geodetic, start, end time.Time, cfg Config) (*Graph, error) {
	cfg.setDefaults()
	if !end.After(start) {
		return nil, fmt.Errorf("netgraph: empty span %v..%v", start, end)
	}
	n := int(end.Sub(start)/cfg.SnapshotStep) + 1
	g := &Graph{
		cfg:      cfg,
		grid:     grid,
		stations: stations,
		start:    start,
		snaps:    make([]Snapshot, n),
	}
	els := make([]orbit.Elements, grid.Sats())
	g.norad = make([]int, grid.Sats())
	for i := range els {
		els[i] = grid.Sat(i).Elements()
		g.norad[i] = els[i].NoradID
	}
	g.cand = walkerNeighbors(els)
	g.stECEF = make([]orbit.Vec3, len(stations))
	g.masks = make([]orbit.GroundMask, len(stations))
	for i, st := range stations {
		g.masks[i] = orbit.NewGroundMask(st, cfg.MinElevationRad)
		g.stECEF[i] = g.masks[i].SiteECEF()
	}
	for k := range g.snaps {
		g.snaps[k].At = start.Add(time.Duration(k) * cfg.SnapshotStep)
	}
	return g, nil
}

// Snapshots returns the snapshot count.
func (g *Graph) Snapshots() int { return len(g.snaps) }

// Nodes returns the total node count; node ids are satellites 0..S-1
// (the grid's rows, S = grid.Sats()) followed by stations S..Nodes-1.
func (g *Graph) Nodes() int { return g.grid.Sats() + len(g.stations) }

// IsStation reports whether node is a ground station.
func (g *Graph) IsStation(node int) bool { return node >= g.grid.Sats() }

// Station returns the station index of a station node.
func (g *Graph) Station(node int) int { return node - g.grid.Sats() }

// NoradID returns the NORAD catalog number of a satellite node.
func (g *Graph) NoradID(sat int) int { return g.norad[sat] }

// CandidateISLs returns the Walker neighbor policy's candidate edge count.
func (g *Graph) CandidateISLs() int { return len(g.cand) }

// Candidates returns the candidate ISL list as satellite index pairs
// (a < b), for callers attaching per-link state such as churn schedules.
// The slice is owned by the graph; do not modify it.
func (g *Graph) Candidates() [][2]int32 { return g.cand }

// LiveISLs returns the number of live candidate ISLs in built snapshot k.
func (g *Graph) LiveISLs(k int) int { return g.snaps[k].liveISL }

// SnapshotFor returns the index of the snapshot governing instant t: the
// last snapshot at or before t, clamped to the span.
func (g *Graph) SnapshotFor(t time.Time) int {
	k := int(t.Sub(g.start) / g.cfg.SnapshotStep)
	if k < 0 {
		k = 0
	}
	if k >= len(g.snaps) {
		k = len(g.snaps) - 1
	}
	return k
}

// ParallelBuildSafe reports whether snapshots may be built concurrently.
// Snapshot builders for different instants query the same ephemeris rows,
// which is race-free only on the pure-read grid-hit/interpolation paths;
// a row in exact mode (configured or demoted at validation) answers
// off-grid queries through its mutable propagator, so such grids must
// build serially. Call after the grid rows are propagated.
func (g *Graph) ParallelBuildSafe() bool {
	if g.grid.Sats() == 0 {
		return true
	}
	return !g.grid.Sat(0).Exact() && g.grid.ExactRows() == 0
}

// BuildAll fills every snapshot as the "topology" phase (see sim.Phase),
// fanning out across workers when the ephemeris allows it (see
// ParallelBuildSafe) and building serially otherwise. Each snapshot
// writes only its own slot and reads only shared immutable samples, so
// the parallel build is bit-identical to the serial one. onDone (may be
// nil) observes completion counts, serialized and strictly increasing.
func (g *Graph) BuildAll(ctx context.Context, onDone func(completed, total int)) error {
	n := len(g.snaps)
	return sim.Phase(ctx, "topology", func() error {
		if g.ParallelBuildSafe() {
			return sim.ForEach(n, func(k int) error {
				g.Build(k)
				return nil
			}, onDone)
		}
		for k := 0; k < n; k++ {
			g.Build(k)
			if onDone != nil {
				onDone(k+1, n)
			}
		}
		return nil
	}, tracing.Int("snapshots", n))
}

// Build fills snapshot k: evaluates every candidate ISL and every
// satellite×station pair against the connectivity predicates at the
// snapshot instant. Safe to call concurrently for distinct k when
// ParallelBuildSafe holds. Idempotent: rebuilding yields the same snapshot.
func (g *Graph) Build(k int) {
	snap := &g.snaps[k]
	t := snap.At
	sats := g.grid.Sats()
	nodes := g.Nodes()

	// pos[i] is satellite i's ECEF position at t; ok[i] is false when
	// propagation failed (a decayed satellite contributes no edges).
	pos := make([]orbit.Vec3, sats)
	ok := make([]bool, sats)
	for i := 0; i < sats; i++ {
		r, _, err := g.grid.Sat(i).PositionECEF(t)
		if err == nil {
			pos[i] = r
			ok[i] = true
		}
	}

	stUp := make([]bool, len(g.stations))
	for j := range g.stations {
		stUp[j] = g.cfg.StationUp == nil || g.cfg.StationUp(j, t)
	}

	// First pass: decide liveness, count degrees. Second pass: fill CSR.
	type liveEdge struct {
		a, b   int32
		distKm float64
	}
	var edges []liveEdge
	limb := orbit.EarthRadiusKm + occlusionAltKm
	liveISL, dropped := 0, 0
	for _, c := range g.cand {
		a, b := int(c[0]), int(c[1])
		if !ok[a] || !ok[b] {
			dropped++
			continue
		}
		if g.cfg.ISLUp != nil && !g.cfg.ISLUp(g.norad[a], g.norad[b], t) {
			dropped++
			continue
		}
		d := pos[a].Sub(pos[b]).Norm()
		if d > g.cfg.MaxISLRangeKm || occluded(pos[a], pos[b], limb) {
			dropped++
			continue
		}
		edges = append(edges, liveEdge{a: c[0], b: c[1], distKm: d})
		liveISL++
	}
	for i := 0; i < sats; i++ {
		if !ok[i] {
			continue
		}
		for j := range g.stations {
			if !stUp[j] || !g.masks[j].Above(pos[i]) {
				continue
			}
			d := pos[i].Sub(g.stECEF[j]).Norm()
			edges = append(edges, liveEdge{a: int32(i), b: int32(sats + j), distKm: d})
		}
	}
	snap.liveISL = liveISL

	deg := make([]int32, nodes)
	for _, e := range edges {
		deg[e.a]++
		deg[e.b]++
	}
	offsets := make([]int32, nodes+1)
	for i := 0; i < nodes; i++ {
		offsets[i+1] = offsets[i] + deg[i]
	}
	nbr := make([]int32, offsets[nodes])
	delay := make([]float64, offsets[nodes])
	fill := make([]int32, nodes)
	copy(fill, offsets[:nodes])
	hop := g.cfg.HopProcessing.Seconds()
	for _, e := range edges {
		w := e.distKm/SpeedOfLightKmPerSec + hop
		nbr[fill[e.a]] = e.b
		delay[fill[e.a]] = w
		fill[e.a]++
		nbr[fill[e.b]] = e.a
		delay[fill[e.b]] = w
		fill[e.b]++
	}
	snap.offsets = offsets
	snap.nbr = nbr
	snap.delay = delay
	observeSnapshot(liveISL, dropped)
}

// occluded reports whether the segment a–b dips inside the sphere of
// radius limit (km, centered on Earth's center): the closest point of the
// segment to the origin is below the grazing shell.
func occluded(a, b orbit.Vec3, limit float64) bool {
	d := b.Sub(a)
	dd := d.Dot(d)
	if dd == 0 {
		return a.Norm() < limit
	}
	t := -a.Dot(d) / dd
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	p := a.Add(d.Scale(t))
	return p.Norm() < limit
}

// walkerNeighbors derives the candidate ISL edge list from the element
// sets using the Walker-grid neighbor policy: satellites are clustered
// into shells (inclination × mean motion) and planes (RAAN), each plane
// is ordered by mean anomaly, and every satellite links to its two
// intra-plane ring neighbors (+grid) and its nearest-anomaly neighbor in
// the next plane of the shell (+cross-plane). Deterministic: ties break
// on NORAD ID, output is sorted.
func walkerNeighbors(els []orbit.Elements) [][2]int32 {
	type shellKey struct{ incl, mm int }
	shells := map[shellKey][]int{}
	for i, e := range els {
		k := shellKey{
			incl: int(math.Round(e.Inclination * 180 / math.Pi * 2)), // half-degree buckets
			mm:   int(math.Round(e.MeanMotion * 1e3)),                // rad/min, ~0.1% buckets
		}
		shells[k] = append(shells[k], i)
	}
	keys := make([]shellKey, 0, len(shells))
	for k := range shells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].incl != keys[j].incl {
			return keys[i].incl < keys[j].incl
		}
		return keys[i].mm < keys[j].mm
	})

	seen := map[[2]int32]bool{}
	var out [][2]int32
	add := func(a, b int) {
		if a == b {
			return
		}
		e := [2]int32{int32(a), int32(b)}
		if a > b {
			e = [2]int32{int32(b), int32(a)}
		}
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}

	for _, k := range keys {
		planes := clusterPlanes(els, shells[k])
		// +grid: ring neighbors within each plane.
		for _, plane := range planes {
			n := len(plane)
			if n < 2 {
				continue
			}
			for i := 0; i < n; i++ {
				add(plane[i], plane[(i+1)%n])
			}
		}
		// +cross-plane: nearest-anomaly neighbor in the next plane.
		if len(planes) < 2 {
			continue
		}
		for p := 0; p < len(planes); p++ {
			next := planes[(p+1)%len(planes)]
			if len(next) == 0 {
				continue
			}
			for _, i := range planes[p] {
				best, bestD := next[0], math.Inf(1)
				for _, j := range next {
					d := circDist(els[i].MeanAnomaly, els[j].MeanAnomaly)
					if d < bestD || (d == bestD && els[j].NoradID < els[best].NoradID) {
						best, bestD = j, d
					}
				}
				add(i, best)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// clusterPlanes groups a shell's satellites into orbital planes by RAAN
// proximity (gap threshold 0.04 rad, merging the wrap-around cluster) and
// orders each plane by mean anomaly. Planes are returned in ascending
// RAAN order.
func clusterPlanes(els []orbit.Elements, idx []int) [][]int {
	if len(idx) == 0 {
		return nil
	}
	sorted := append([]int(nil), idx...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := els[sorted[i]], els[sorted[j]]
		ra, rb := wrapTwoPi(a.RAAN), wrapTwoPi(b.RAAN)
		if ra != rb {
			return ra < rb
		}
		return a.NoradID < b.NoradID
	})
	const gap = 0.04 // rad; 72 planes are 0.087 rad apart
	var planes [][]int
	cur := []int{sorted[0]}
	for _, i := range sorted[1:] {
		if wrapTwoPi(els[i].RAAN)-wrapTwoPi(els[cur[len(cur)-1]].RAAN) > gap {
			planes = append(planes, cur)
			cur = nil
		}
		cur = append(cur, i)
	}
	planes = append(planes, cur)
	// Wrap-around: the first and last clusters may be one plane split at 0.
	if len(planes) > 1 {
		first, last := planes[0], planes[len(planes)-1]
		if wrapTwoPi(els[first[0]].RAAN)+2*math.Pi-wrapTwoPi(els[last[len(last)-1]].RAAN) <= gap {
			planes[0] = append(last, first...)
			planes = planes[:len(planes)-1]
		}
	}
	for _, plane := range planes {
		sort.Slice(plane, func(i, j int) bool {
			a, b := els[plane[i]], els[plane[j]]
			ma, mb := wrapTwoPi(a.MeanAnomaly), wrapTwoPi(b.MeanAnomaly)
			if ma != mb {
				return ma < mb
			}
			return a.NoradID < b.NoradID
		})
	}
	return planes
}

// circDist returns the circular distance between two angles in [0, π].
func circDist(a, b float64) float64 {
	d := math.Abs(wrapTwoPi(a) - wrapTwoPi(b))
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

func wrapTwoPi(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}
