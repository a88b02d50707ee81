package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/sinet-io/sinet/internal/service"
)

// job is one generated campaign request: the wire body a client posts plus
// what the harness needs to label and verify the answer.
type job struct {
	index int
	shape string // shape name, e.g. "active/fig5a"
	kind  string
	body  []byte // POST /v1/jobs payload
}

// spec decodes a fresh, unnormalized copy of the job's spec.
func (j *job) spec() (*service.JobSpec, error) {
	spec := new(service.JobSpec)
	if err := json.Unmarshal(j.body, spec); err != nil {
		return nil, fmt.Errorf("decode %s spec: %w", j.shape, err)
	}
	return spec, nil
}

// shape is one campaign shape of a workload mix. build returns the i-th
// distinct spec of the shape: seeded kinds take i into their seed, the
// unseeded ones (coverage, backhaul) shift their start by i minutes, so no
// two jobs of one run share a content key. Shapes vary only what the seed
// and index select, never their size, so every seed costs about the same.
type shape struct {
	name  string
	build func(base int64, i int) service.JobSpec
}

// Cluster settings the sharded-fleet workload runs with (sinetd defaults).
const (
	shardThreshold = 16
	fleetWorkers   = 2
)

var epoch = time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)

// start derives a distinct campaign start for unseeded kinds.
func start(base int64, i int) time.Time {
	return epoch.Add(time.Duration(base%1000)*time.Hour + time.Duration(i)*time.Minute)
}

// activeFig5a is the Fig. 5a campaign shape: max_retx 5 over Tianqi, with
// 1-6 nodes rotating every twelve jobs of a mix.
func activeFig5a(days int) shape {
	return shape{fmt.Sprintf("active/fig5a-%dd", days), func(base int64, i int) service.JobSpec {
		return service.JobSpec{Kind: service.KindActive, Active: &service.ActiveSpec{
			Seed: base + int64(i), MaxRetx: 5, Days: days, Nodes: 1 + (i/12)%6}}
	}}
}

func activeOn(cons string) shape {
	return shape{"active/" + cons, func(base int64, i int) service.JobSpec {
		return service.JobSpec{Kind: service.KindActive, Active: &service.ActiveSpec{
			Seed: base + int64(i), Days: 1, Nodes: 3, Constellation: cons}}
	}}
}

func routing(cons, policy string) shape {
	return shape{"routing/" + cons + "-" + policy, func(base int64, i int) service.JobSpec {
		return service.JobSpec{Kind: service.KindRouting, Routing: &service.RoutingSpec{
			Seed: base + int64(i), Constellation: cons, Policy: policy}}
	}}
}

func passive(name string, sites, cons []string) shape {
	return shape{"passive/" + name, func(base int64, i int) service.JobSpec {
		return service.JobSpec{Kind: service.KindPassive, Passive: &service.PassiveSpec{
			Seed: base + int64(i), Sites: sites, Constellations: cons}}
	}}
}

func coverage(lats int) shape {
	return shape{fmt.Sprintf("coverage/%dlat", lats), func(base int64, i int) service.JobSpec {
		deg := make([]float64, lats)
		for k := range deg {
			deg[k] = -75 + 150*float64(k)/float64(max(lats-1, 1))
		}
		if lats == 1 {
			deg[0] = float64((base+int64(i)*37)%120) - 60
		}
		return service.JobSpec{Kind: service.KindCoverage, Coverage: &service.CoverageSpec{
			LatitudesDeg: deg, Start: start(base, i)}}
	}}
}

func backhaul(cons string) shape {
	return shape{"backhaul/" + cons, func(base int64, i int) service.JobSpec {
		return service.JobSpec{Kind: service.KindBackhaul, Backhaul: &service.BackhaulSpec{
			Constellation: cons, Start: start(base, i)}}
	}}
}

var (
	allSites = []string{"HK", "SYD", "LDN", "PGH"}
	allCons  = []string{"Tianqi", "FOSSA", "PICO", "CSTP"}
)

// coldMixCycle is one stratum of the cold-mix workload: every cycle of
// thirteen jobs holds the same shapes, so the cost mix is the same for
// every seed. Active (Fig. 5a shape included) and routing carry the most
// weight, as in the paper's campaigns. An odd slot count keeps the median
// inside one latency band instead of on the gap between the sixth and
// seventh slowest shapes.
func coldMixCycle(tiny bool) []shape {
	if tiny {
		return []shape{activeFig5a(1), activeOn("PICO"), routing("PICO", "compare"),
			passive("hk-small", []string{"HK"}, []string{"FOSSA", "PICO"}), coverage(1), backhaul("CSTP")}
	}
	return []shape{
		activeFig5a(1), activeFig5a(2), activeFig5a(1), activeFig5a(3), activeOn("PICO"),
		routing("Tianqi", "compare"), routing("Tianqi", "relay"), routing("PICO", "compare"),
		passive("full", allSites, allCons), passive("tianqi", []string{"HK", "SYD"}, []string{"Tianqi"}),
		coverage(9), coverage(3), backhaul("Tianqi"),
	}
}

// fleetCycle is one stratum of the sharded-fleet workload: seven shapes
// over Tianqi's 22 satellites or 32 latitudes exceed the shard threshold
// and are split across the fleet; six stay at or under it and are proxied
// to their ring owner. With an even split the median would sit exactly on
// the gap between the fast proxied and the slow sharded jobs.
func fleetCycle(tiny bool) []shape {
	if tiny {
		return []shape{activeFig5a(1), coverage(32), activeOn("PICO"), coverage(1)}
	}
	return []shape{
		activeFig5a(1), activeFig5a(1), activeFig5a(1), routing("Tianqi", "compare"), routing("Tianqi", "relay"),
		backhaul("Tianqi"), coverage(32),
		passive("full", allSites, allCons), passive("tianqi", []string{"HK", "SYD"}, []string{"Tianqi"}),
		coverage(9), activeOn("PICO"), routing("PICO", "compare"), backhaul("PICO"),
	}
}

// hotKeys lists the hot-repeat working set in popularity order (rank 1
// first): every kind, result sizes from ~0.1 KB (one-latitude coverage) to
// ~1.8 MB (the full passive campaign). Under Zipf(s=1) popularity the
// ranks give small results (< 5 KB) ~57% of requests, 15-110 KB ones
// ~27%, the 250 KB routing results ~12%, a 660 KB passive result 1% and
// the 1.8 MB one 2%, so p50, p90 and p99 each fall inside one size class
// rather than on the edge between two.
func hotKeys(tiny bool) []shape {
	if tiny {
		return []shape{coverage(1), activeOn("PICO"), backhaul("PICO"), passive("hk-small", []string{"HK"}, []string{"FOSSA", "PICO"})}
	}
	return []shape{
		coverage(1), activeFig5a(1), backhaul("PICO"), routing("Tianqi", "relay"),
		coverage(9), coverage(3), activeOn("PICO"), backhaul("Tianqi"),
		passive("hk-small", []string{"HK"}, []string{"FOSSA", "PICO"}), routing("Tianqi", "compare"), coverage(1), passive("full", allSites, allCons),
		activeOn("CSTP"), backhaul("CSTP"), routing("PICO", "compare"), routing("Tianqi", "relay"),
		activeFig5a(1), coverage(9), passive("syd-small", []string{"SYD"}, []string{"FOSSA", "CSTP"}), coverage(3),
		routing("Tianqi", "compare"), backhaul("PICO"), routing("PICO", "relay"), passive("tianqi", []string{"HK", "SYD"}, []string{"Tianqi"}),
	}
}

// warmupShapes are the jobs every set-up runs once, with keys of their
// own: one full cycle of the workload's mix, so lazy initialization and
// first-touch costs of every shape land in setup_s, not in the window.
func warmupShapes(w string, tiny bool) []shape {
	if w == wlFleet {
		return fleetCycle(tiny)
	}
	return coldMixCycle(tiny)
}

// warmupBase offsets set-up job indices away from measured ones.
const warmupBase = 1 << 20

// makeJob builds job i of shape sh under the run's base seed.
func makeJob(sh shape, base int64, i int) (*job, error) {
	spec := sh.build(base, i)
	body, err := json.Marshal(&spec)
	if err != nil {
		return nil, fmt.Errorf("encode %s spec: %w", sh.name, err)
	}
	if _, err := service.ConfigKey(&spec); err != nil {
		return nil, fmt.Errorf("%s spec: %w", sh.name, err)
	}
	return &job{
		index: i,
		shape: sh.name,
		kind:  spec.Kind,
		body:  body,
	}, nil
}

// mix hands out a workload's jobs in order: cycle after cycle of its
// shapes. Safe for concurrent clients.
type mix struct {
	mu    sync.Mutex
	cycle []shape
	base  int64
	next  int
	err   error
}

func newMix(cycle []shape, seed int64) *mix {
	return &mix{cycle: cycle, base: seedBase(seed)}
}

// seedBase spreads seeds apart in spec-seed space.
func seedBase(seed int64) int64 { return seed * 1_000_000 }

// take returns the next job, or nil once a spec failed to build.
func (m *mix) take() *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return nil
	}
	j, err := makeJob(m.cycle[m.next%len(m.cycle)], m.base, m.next)
	if err != nil {
		m.err = err
		return nil
	}
	m.next++
	return j
}
