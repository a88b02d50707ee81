// Benchmarks regenerating every table and figure of the paper, one bench
// per artifact (see DESIGN.md's per-experiment index), plus ablation
// benches for the design choices the reproduction calls out. Each
// iteration regenerates the artifact end to end at the quick scale; the
// interesting domain numbers are attached as custom metrics.
package sinet_test

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	sinet "github.com/sinet-io/sinet"
	"github.com/sinet-io/sinet/internal/backhaul"
	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/groundstation"
	"github.com/sinet-io/sinet/internal/mac"
	"github.com/sinet-io/sinet/internal/netgraph"
	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/sim"
)

// newRunner builds a fresh quick-scale experiment runner.
func newRunner() *sinet.ExperimentRunner {
	return sinet.NewExperimentRunner(sinet.QuickScale(), io.Discard)
}

func BenchmarkTable1Dataset(b *testing.B) {
	// One untimed warmup run: the first campaign of the process pays for
	// heap growth and first-touch page faults that say nothing about the
	// hot path, and at -benchtime 1x (the `make bench` smoke default) that
	// startup cost would otherwise dominate the reported number.
	if _, err := newRunner().Table1(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := newRunner().Table1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TotalTraces), "traces")
	}
}

func BenchmarkTable2Cost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newRunner().Table2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.SatMonthlyPerNode), "$/node-month")
	}
}

func BenchmarkTable3Constellations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := newRunner().Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3aPresence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newRunner().Fig3a()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DailyHours["Tianqi"]["HK"], "tianqi-h/day")
	}
}

func BenchmarkFig3bRSSI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newRunner().Fig3b()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(-res.Mean["Tianqi"], "-dBm")
	}
}

func BenchmarkFig3cRSSIvsDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := newRunner().Fig3c(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3dWeather(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newRunner().Fig3d()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OverallLoss*100, "beacon-loss-%")
	}
}

func BenchmarkFig4aWindows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newRunner().Fig4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Shrink["Tianqi"]*100, "shrink-%")
	}
}

func BenchmarkFig4bIntervals(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newRunner().Fig4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Stretch["Tianqi"], "stretch-x")
	}
}

func BenchmarkFig5aReliability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newRunner().Fig5a()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SatWithRetx*100, "retx-rel-%")
		b.ReportMetric(res.SatNoRetx*100, "noretx-rel-%")
	}
}

func BenchmarkFig5bRetransmissions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newRunner().Fig5b()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanRetx["1/4λ rainy"], "worst-retx")
	}
}

func BenchmarkFig5cLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newRunner().Fig5cd()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Ratio, "sat/terr-x")
	}
}

func BenchmarkFig5dLatencyBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newRunner().Fig5cd()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Wait.Minutes(), "wait-min")
		b.ReportMetric(res.Delivery.Minutes(), "delivery-min")
	}
}

func BenchmarkFig6Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newRunner().Fig6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Energy.PowerRatio, "drain-ratio-x")
	}
}

func BenchmarkFig8Distances(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newRunner().Fig8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TianqiP90, "tianqi-p90-km")
	}
}

func BenchmarkFig9WindowPosition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newRunner().Fig9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MiddleFraction*100, "middle-%")
	}
}

func BenchmarkFig10TerrestrialPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := newRunner().Fig10(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11TerrestrialBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newRunner().Fig11()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TxRxEnergyFrac*100, "txrx-energy-%")
	}
}

func BenchmarkFig12aPayload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newRunner().Fig12a()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Reliability[120]*100, "120B-rel-%")
	}
}

func BenchmarkFig12bConcurrency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := newRunner().Fig12b()
		if err != nil {
			b.Fatal(err)
		}
		if rel, ok := res.ReliabilityByConcurrency[3]; ok {
			b.ReportMetric(rel*100, "3node-rel-%")
		}
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationScheduler compares the paper's customized tracking
// scheduler against the vanilla TinyGS round-robin it replaced (§2.2).
func BenchmarkAblationScheduler(b *testing.B) {
	start := time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)
	hk, _ := sinet.SiteByCode("HK")
	cons := sinet.PICO(start)
	var catalog []int
	for _, s := range cons.Sats {
		catalog = append(catalog, s.NoradID)
	}
	run := func(sched groundstation.Scheduler) int {
		res, err := sinet.RunPassive(sinet.PassiveConfig{
			Seed: 42, Start: start, Days: 1,
			Sites:          []sinet.Site{hk},
			Constellations: []sinet.Constellation{cons},
			Scheduler:      sched,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.Dataset.Len()
	}
	for i := 0; i < b.N; i++ {
		tracked := run(groundstation.TrackingScheduler{})
		vanilla := run(groundstation.RoundRobinScheduler{Catalog: catalog, Slot: 10 * time.Minute})
		b.ReportMetric(float64(tracked), "tracking-traces")
		b.ReportMetric(float64(vanilla), "vanilla-traces")
	}
}

// BenchmarkAblationCapture measures the collision model with and without
// the LoRa capture effect.
func BenchmarkAblationCapture(b *testing.B) {
	run := func(capture bool) float64 {
		res, err := sinet.RunActive(sinet.ActiveConfig{
			Seed: 42, Days: 2, Nodes: 3,
			Policy: sinet.NoRetxPolicy(), AlignedPhases: true,
			Collisions: mac.CollisionModel{CaptureThresholdDB: 6, CaptureEnabled: capture},
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.Reliability()
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(true)*100, "capture-rel-%")
		b.ReportMetric(run(false)*100, "nocapture-rel-%")
	}
}

// BenchmarkAblationRetxBudget sweeps the retransmission budget, the
// paper's central protocol knob (Fig. 5a evaluates 0 and 5).
func BenchmarkAblationRetxBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, budget := range []int{0, 2, 5} {
			res, err := sinet.RunActive(sinet.ActiveConfig{
				Seed: 42, Days: 2,
				Policy: sinet.RetxPolicy{MaxRetx: budget, AckTimeout: 3 * time.Second},
			})
			if err != nil {
				b.Fatal(err)
			}
			switch budget {
			case 0:
				b.ReportMetric(res.Reliability()*100, "retx0-rel-%")
			case 5:
				b.ReportMetric(res.Reliability()*100, "retx5-rel-%")
			}
		}
	}
}

// BenchmarkAblationTwoLevel compares the two-level simulation strategy
// (pass prediction gates beacon-level work) against naive flat stepping
// that evaluates geometry at every beacon instant of the day.
func BenchmarkAblationTwoLevel(b *testing.B) {
	start := time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)
	cons := sinet.Tianqi(start)
	site := sinet.LatLon(22.3, 114.2, 0)

	b.Run("two-level", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			visible := 0
			for _, e := range cons.Sats {
				prop, err := sinet.NewPropagator(e)
				if err != nil {
					b.Fatal(err)
				}
				pp := sinet.NewPassPredictor(prop)
				for _, pass := range pp.Passes(site, start, start.Add(24*time.Hour), 0) {
					for t := pass.AOS; t.Before(pass.LOS); t = t.Add(cons.BeaconInterval) {
						visible++
					}
				}
			}
			b.ReportMetric(float64(visible), "beacon-slots")
		}
	})
	b.Run("flat-stepping", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			visible := 0
			for _, e := range cons.Sats {
				prop, err := sinet.NewPropagator(e)
				if err != nil {
					b.Fatal(err)
				}
				for t := start; t.Before(start.Add(24 * time.Hour)); t = t.Add(cons.BeaconInterval) {
					r, v, err := prop.PositionECEF(t)
					if err != nil {
						continue
					}
					if orbit.Look(site, r, v).Elevation > 0 {
						visible++
					}
				}
			}
			b.ReportMetric(float64(visible), "beacon-slots")
		}
	})
}

// --- Micro-benchmarks on the hot substrate paths -------------------------

func BenchmarkSGP4Propagate(b *testing.B) {
	start := time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)
	prop, err := sinet.NewPropagator(sinet.Tianqi(start).Sats[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prop.PropagateMinutes(float64(i % 10000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPassPrediction(b *testing.B) {
	start := time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)
	prop, err := sinet.NewPropagator(sinet.Tianqi(start).Sats[0])
	if err != nil {
		b.Fatal(err)
	}
	site := sinet.LatLon(22.3, 114.2, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pp := sinet.NewPassPredictor(prop)
		if passes := pp.Passes(site, start, start.Add(24*time.Hour), 0); len(passes) == 0 {
			b.Fatal("no passes")
		}
	}
}

// benchSites are the four continent deployment sites, the campaign shape
// whose pass prediction the serial/parallel benches compare.
func benchSites() []sinet.Geodetic {
	return []sinet.Geodetic{
		sinet.LatLon(22.3, 114.2, 0),   // Hong Kong
		sinet.LatLon(-33.87, 151.2, 0), // Sydney
		sinet.LatLon(51.5, -0.1, 0),    // London
		sinet.LatLon(40.44, -79.99, 0), // Pittsburgh
	}
}

// sgp4CallsOf runs fn once with an orbit telemetry registry installed and
// returns the SGP4 propagations it made. The propagation-count benches call
// it before b.ResetTimer, so their timed loops run uninstrumented.
func sgp4CallsOf(fn func()) float64 {
	r := obs.New()
	orbit.SetMetrics(r)
	defer orbit.SetMetrics(nil)
	fn()
	return float64(r.Counter("sinet_sgp4_calls_total", "").Value())
}

// BenchmarkPassPredictionSerial is the seed pipeline's shape: one
// propagator per satellite, re-propagated once per (site × step).
func BenchmarkPassPredictionSerial(b *testing.B) {
	start := time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)
	cons := sinet.Tianqi(start)
	sites := benchSites()
	end := start.Add(24 * time.Hour)
	run := func() int {
		total := 0
		for _, els := range cons.Sats {
			prop, err := sinet.NewPropagator(els)
			if err != nil {
				b.Fatal(err)
			}
			pp := sinet.NewPassPredictor(prop)
			for _, site := range sites {
				total += len(pp.Passes(site, start, end, 0))
			}
		}
		if total == 0 {
			b.Fatal("no passes")
		}
		return total
	}
	calls := sgp4CallsOf(func() { run() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(run()), "passes")
	}
	b.ReportMetric(calls, "sgp4-calls")
}

// BenchmarkPassPredictionParallel is the optimized shape: one shared
// ephemeris per satellite (built concurrently), sites fanned across
// workers reading the shared samples.
func BenchmarkPassPredictionParallel(b *testing.B) {
	start := time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)
	cons := sinet.Tianqi(start)
	sites := benchSites()
	end := start.Add(24 * time.Hour)
	run := func() int {
		ephs := make([]*sinet.Ephemeris, len(cons.Sats))
		sim.Phase(context.Background(), "ephemeris", len(cons.Sats), func(si int) error {
			prop, err := sinet.NewPropagator(cons.Sats[si])
			if err != nil {
				b.Error(err)
				return nil
			}
			ephs[si] = sinet.NewEphemeris(prop, start, end, 30*time.Second)
			return nil
		}, nil)
		counts := make([]int, len(sites))
		sim.Phase(context.Background(), "passes", len(sites), func(gi int) error {
			for _, eph := range ephs {
				counts[gi] += len(sinet.NewEphemerisPredictor(eph).Passes(sites[gi], start, end, 0))
			}
			return nil
		}, nil)
		total := 0
		for _, c := range counts {
			total += c
		}
		if total == 0 {
			b.Fatal("no passes")
		}
		return total
	}
	calls := sgp4CallsOf(func() { run() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(run()), "passes")
	}
	b.ReportMetric(calls, "sgp4-calls")
}

func BenchmarkTLEParse(b *testing.B) {
	start := time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)
	card := sinet.Tianqi(start).Sats[0].TLE().Format()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sinet.ParseTLE(card); err != nil {
			b.Fatal(err)
		}
	}
}

// megaSites spreads benchmark ground sites across latitudes from the
// equator to the polar caps at varied longitudes, deterministically.
func megaSites(n int) []sinet.Geodetic {
	sites := make([]sinet.Geodetic, n)
	for i := 0; i < n; i++ {
		lat := -80 + 160*float64(i)/float64(n-1)
		lon := float64((i * 73) % 360)
		if lon > 180 {
			lon -= 360
		}
		sites[i] = sinet.LatLon(lat, lon, 0)
	}
	return sites
}

// BenchmarkMegaConstellation exercises the batched ephemeris grid and the
// zero-allocation pass search far beyond the paper's 39-satellite catalog:
// a Starlink-class fleet swept against 100 globally spread sites. The grid
// is built once per iteration (its struct-of-arrays storage is the bounded
// six-allocation cost the B/op column shows) and one predictor per site is
// repointed across all satellites with PassesAppend into a reused buffer.
func BenchmarkMegaConstellation(b *testing.B) {
	for _, size := range []struct {
		name string
		sats int
	}{{"1k", 1000}, {"10k", 10000}} {
		b.Run(size.name, func(b *testing.B) {
			start := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
			end := start.Add(6 * time.Hour)
			cons := constellation.Mega(start, size.sats)
			props, err := cons.Propagators()
			if err != nil {
				b.Fatal(err)
			}
			sites := megaSites(100)
			run := func() (total, exactRows int) {
				grid := orbit.NewEphemerisGrid(props, start, end, orbit.EphemerisConfig{ScanStep: time.Minute})
				sim.Phase(context.Background(), "ephemeris", grid.Sats(), func(si int) error { grid.Propagate(si); return nil }, nil)
				grid.Finish()
				counts := make([]int, len(sites))
				sim.Phase(context.Background(), "passes", len(sites), func(gi int) error {
					pp := orbit.NewEphemerisPredictor(grid.Sat(0))
					passes := make([]orbit.Pass, 0, 4096)
					for si := 0; si < grid.Sats(); si++ {
						pp.SetSource(grid.Sat(si))
						passes = pp.PassesAppend(passes[:0], sites[gi], start, end, 0)
						counts[gi] += len(passes)
					}
					return nil
				}, nil)
				for _, c := range counts {
					total += c
				}
				if total == 0 {
					b.Fatal("no passes")
				}
				for si := 0; si < grid.Sats(); si++ {
					if grid.Sat(si).Exact() {
						exactRows++
					}
				}
				return total, exactRows
			}
			calls := sgp4CallsOf(func() { run() })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total, exactRows := run()
				b.ReportMetric(float64(total), "passes")
				b.ReportMetric(float64(exactRows), "exact-rows")
			}
			b.ReportMetric(calls, "sgp4-calls")
		})
	}
}

// BenchmarkEphemerisQuery pins the per-query cost of the three off-grid
// answer paths — grid hit, Hermite interpolation, and (instrumented) the
// same with live metrics counters, whose Load now happens once per pass
// search rather than per query. ReportAllocs pins all three at zero
// allocations per query.
func BenchmarkEphemerisQuery(b *testing.B) {
	start := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	prop, err := sinet.NewPropagator(sinet.Tianqi(start).Sats[0])
	if err != nil {
		b.Fatal(err)
	}
	eph := sinet.NewEphemeris(prop, start, start.Add(24*time.Hour), 30*time.Second)
	onGrid := start.Add(eph.Step())
	offGrid := start.Add(eph.Step() + eph.Step()/2)

	run := func(b *testing.B, at time.Time) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := eph.PositionECEF(at); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("grid-hit", func(b *testing.B) { run(b, onGrid) })
	b.Run("interp", func(b *testing.B) { run(b, offGrid) })
	b.Run("instrumented", func(b *testing.B) {
		orbit.SetMetrics(obs.New())
		defer orbit.SetMetrics(nil)
		run(b, offGrid)
	})
}

// BenchmarkPassesAppend measures the steady-state pass search with a
// caller-owned buffer: after the first iteration warms the buffer the
// search runs allocation-free (ReportAllocs pins it).
func BenchmarkPassesAppend(b *testing.B) {
	start := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(24 * time.Hour)
	prop, err := sinet.NewPropagator(sinet.Tianqi(start).Sats[0])
	if err != nil {
		b.Fatal(err)
	}
	eph := sinet.NewEphemeris(prop, start, end, 30*time.Second)
	pp := sinet.NewEphemerisPredictor(eph)
	site := benchSites()[0]
	passes := pp.PassesAppend(nil, site, start, end, 0)
	if len(passes) == 0 {
		b.Fatal("no passes")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		passes = pp.PassesAppend(passes[:0], site, start, end, 0)
	}
}

// BenchmarkDownlinkWindows measures the ground-segment downlink sweep that
// the active plan phase, the routing store/compare policies and the
// backhaul campaign run once per satellite: every Tianqi satellite swept
// against the 12-station segment over one shared 28 h ephemeris grid at
// the campaigns' 1-minute step.
func BenchmarkDownlinkWindows(b *testing.B) {
	start := time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(28 * time.Hour)
	props, err := constellation.Tianqi(start).Propagators()
	if err != nil {
		b.Fatal(err)
	}
	grid := orbit.NewEphemerisGrid(props, start, end, orbit.EphemerisConfig{ScanStep: time.Minute})
	grid.PropagateAll()
	segment := backhaul.TianqiGroundSegment()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		windows := 0
		for si := 0; si < grid.Sats(); si++ {
			windows += len(segment.DownlinkWindows(grid.Sat(si), start, end, time.Minute))
		}
		if windows == 0 {
			b.Fatal("no downlink windows")
		}
		b.ReportMetric(float64(windows), "windows")
	}
}

// BenchmarkRevisitAnalysis measures the coverage kind's nine-latitude
// shape (servebench's coverage/9lat): Tianqi's union visibility and revisit
// gaps at latitudes −75° to 75° over one day, ephemeris propagation
// included.
func BenchmarkRevisitAnalysis(b *testing.B) {
	start := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	cons := sinet.Tianqi(start)
	lats := make([]float64, 9)
	for k := range lats {
		lats[k] = -75 + 150*float64(k)/8
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := sinet.RevisitAnalysis(cons, lats, start, 1)
		if err != nil {
			b.Fatal(err)
		}
		passes := 0
		for _, s := range stats {
			passes += s.Passes
		}
		if passes == 0 {
			b.Fatal("no passes")
		}
		b.ReportMetric(float64(passes), "passes")
	}
}

// BenchmarkTopologyBuild measures time-varying network-graph snapshot
// construction — candidate ISL discovery plus per-snapshot visibility,
// range and occlusion predicates — over a 1-hour window at the default
// 1-minute cadence. The sub-benchmarks scale the Walker shell from the
// Tianqi class up to a mega-constellation slice; each iteration rebuilds
// every snapshot of a pre-propagated ephemeris grid.
func BenchmarkTopologyBuild(b *testing.B) {
	epoch := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	stations := backhaul.TianqiGroundSegment().Stations
	for _, sats := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("%dsats", sats), func(b *testing.B) {
			cons := constellation.Mega(epoch, sats)
			props, err := cons.Propagators()
			if err != nil {
				b.Fatal(err)
			}
			end := epoch.Add(time.Hour)
			grid := orbit.NewEphemerisGrid(props, epoch, end, orbit.EphemerisConfig{ScanStep: time.Minute})
			grid.PropagateAll()
			g, err := netgraph.New(grid, stations, epoch, end, netgraph.Config{})
			if err != nil {
				b.Fatal(err)
			}
			snaps := g.Snapshots()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < snaps; k++ {
					g.Build(k)
				}
			}
			b.ReportMetric(float64(snaps), "snapshots/op")
			b.ReportMetric(float64(g.LiveISLs(0)), "live-isls@t0")
		})
	}
}

// BenchmarkRoutingCampaign runs the full store-vs-relay routing campaign
// end to end — ephemeris, topology, per-packet earliest-delivery search —
// for one day of the Tianqi constellation, the paper's Table 3 baseline.
func BenchmarkRoutingCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sinet.RunRouting(sinet.RoutingConfig{Seed: 1, Days: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.Packets)), "packets")
			b.ReportMetric(res.Relay.MeanSec, "relay-mean-sec")
			b.ReportMetric(res.Store.MeanSec, "store-mean-sec")
		}
	}
}
