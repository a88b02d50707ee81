package core

import (
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/channel"
	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/groundstation"
	"github.com/sinet-io/sinet/internal/sim"
)

// simRNG is shorthand for sim.NewRNG in tests.
func simRNG(seed int64, name string) *sim.RNG { return sim.NewRNG(seed, name) }

var campaignStart = time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)

// smallPassive runs a 2-day single-site campaign over Tianqi and PICO used
// by several tests; cached across the package's tests.
var cachedPassive *PassiveResult

func smallPassive(t *testing.T) *PassiveResult {
	t.Helper()
	if cachedPassive != nil {
		return cachedPassive
	}
	hk, ok := SiteByCode("HK")
	if !ok {
		t.Fatal("HK site missing")
	}
	res, err := RunPassive(PassiveConfig{
		Seed:  42,
		Start: campaignStart,
		Days:  2,
		Sites: []Site{hk},
		Constellations: []constellation.Constellation{
			constellation.Tianqi(campaignStart),
			constellation.PICO(campaignStart),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cachedPassive = res
	return res
}

func TestPaperSitesTable1(t *testing.T) {
	sites := PaperSites()
	if len(sites) != 8 {
		t.Fatalf("sites = %d, want 8", len(sites))
	}
	total := 0
	for _, s := range sites {
		total += s.Stations
		if s.RainProbability < 0 || s.RainProbability > 1 {
			t.Errorf("%s rain probability %v", s.Code, s.RainProbability)
		}
		if built := s.BuildStations(); len(built) != s.Stations {
			t.Errorf("%s built %d stations, want %d", s.Code, len(built), s.Stations)
		}
	}
	if total != 27 {
		t.Errorf("total stations = %d, want 27 (Table 1)", total)
	}
	if _, ok := SiteByCode("HK"); !ok {
		t.Error("HK lookup failed")
	}
	if _, ok := SiteByCode("XX"); ok {
		t.Error("bogus site code found")
	}
	if got := len(ContinentSites()); got != 4 {
		t.Errorf("continent sites = %d", got)
	}
}

func TestStationIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range PaperSites() {
		for _, st := range s.BuildStations() {
			if seen[st.ID] {
				t.Errorf("duplicate station ID %s", st.ID)
			}
			seen[st.ID] = true
			if st.Site != s.Code {
				t.Errorf("station %s has site %s", st.ID, st.Site)
			}
		}
	}
}

func TestWeatherProcess(t *testing.T) {
	hk, _ := SiteByCode("HK")
	w := NewWeatherProcess(simRNG(7, "weather-test"), hk, campaignStart, 60)
	// Stationary wet fraction near the site's rain probability.
	if frac := wetFraction(w); frac < hk.RainProbability-0.12 || frac > hk.RainProbability+0.12 {
		t.Errorf("wet fraction = %.2f, want ≈%.2f", frac, hk.RainProbability)
	}
	// Deterministic per seed.
	w2 := NewWeatherProcess(simRNG(7, "weather-test"), hk, campaignStart, 60)
	for d := 0; d < 60*4; d++ {
		at := campaignStart.Add(time.Duration(d) * 6 * time.Hour)
		if w.At(at) != w2.At(at) {
			t.Fatal("weather process not deterministic")
		}
	}
	// Clamped outside range.
	_ = w.At(campaignStart.Add(-time.Hour))
	_ = w.At(campaignStart.Add(1000 * 24 * time.Hour))
}

func TestRunPassiveProducesContacts(t *testing.T) {
	res := smallPassive(t)
	if len(res.Contacts) == 0 {
		t.Fatal("no contacts")
	}
	if res.Dataset.Len() == 0 {
		t.Fatal("no trace records")
	}
	for i, c := range res.Contacts {
		if c.BeaconsReceived > c.BeaconsSent {
			t.Errorf("contact %d received more than sent", i)
		}
		if c.EffectiveDuration() > c.TheoreticalDuration()+time.Second {
			t.Errorf("contact %d effective exceeds theoretical", i)
		}
		if c.BeaconsReceived > 0 && (c.FirstRx.Before(c.Pass.AOS) || c.LastRx.After(c.Pass.LOS)) {
			t.Errorf("contact %d receptions outside window", i)
		}
		for _, p := range c.RxPositions {
			if p < 0 || p > 1 {
				t.Errorf("contact %d position %v outside [0,1]", i, p)
			}
		}
	}
}

func TestRunPassiveDeterministic(t *testing.T) {
	hk, _ := SiteByCode("HK")
	cfg := PassiveConfig{
		Seed: 7, Start: campaignStart, Days: 1,
		Sites:          []Site{hk},
		Constellations: []constellation.Constellation{constellation.FOSSA(campaignStart)},
	}
	a, err := RunPassive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPassive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Dataset.Len() != b.Dataset.Len() || len(a.Contacts) != len(b.Contacts) {
		t.Fatalf("same seed differs: %d/%d records, %d/%d contacts",
			a.Dataset.Len(), b.Dataset.Len(), len(a.Contacts), len(b.Contacts))
	}
	for i := range a.Dataset.Records {
		if a.Dataset.Records[i] != b.Dataset.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestEffectiveWindowsShrink(t *testing.T) {
	// The headline §3.1 finding: effective durations collapse versus
	// theoretical ones, in the paper by 73.7%-89.2%. Allow a generous
	// band around it.
	res := smallPassive(t)
	for _, cons := range []string{"Tianqi", "PICO"} {
		sh := res.Shrinkage(cons, "HK")
		if sh.Contacts == 0 {
			t.Fatalf("%s: no covered contacts", cons)
		}
		if sh.ShrinkFraction < 0.6 || sh.ShrinkFraction > 0.97 {
			t.Errorf("%s shrink = %.1f%%, want in the paper's regime (60-97%%)", cons, sh.ShrinkFraction*100)
		}
		if sh.MeanEffective >= sh.MeanTheoretical {
			t.Errorf("%s effective >= theoretical", cons)
		}
	}
}

func TestIntervalsStretch(t *testing.T) {
	res := smallPassive(t)
	iv := res.Intervals("Tianqi", "HK")
	if iv.Stretch <= 1.2 {
		t.Errorf("interval stretch = %.2f, want meaningfully > 1 (paper: 6.1-44.9)", iv.Stretch)
	}
	if iv.MeanEffective <= iv.MeanTheoretical {
		t.Error("effective intervals not longer than theoretical")
	}
}

func TestBeaconLossesHigh(t *testing.T) {
	// Fig. 3d headline: >50% of beacons dropped.
	res := smallPassive(t)
	if loss := res.OverallBeaconLoss("Tianqi"); loss < 0.5 || loss >= 1 {
		t.Errorf("Tianqi beacon loss = %.2f, want > 0.5", loss)
	}
}

func TestReceptionsConcentrateMidWindow(t *testing.T) {
	// Fig. 9: ~70% of receptions within the middle 30-70% of the window.
	res := smallPassive(t)
	wp := res.WindowPositions("")
	if wp.Total == 0 {
		t.Fatal("no positions recorded")
	}
	if wp.MiddleFraction < 0.55 {
		t.Errorf("middle fraction = %.2f, want > 0.55 (paper: 0.704)", wp.MiddleFraction)
	}
	if wp.Histogram.Total() != wp.Total {
		t.Error("histogram total mismatch")
	}
}

func TestRSSIInPaperBand(t *testing.T) {
	// Fig. 3b: LEO IoT signals arrive at roughly -140..-110 dBm.
	res := smallPassive(t)
	s := res.RSSISummary("")
	if s.N == 0 {
		t.Fatal("no RSSI samples")
	}
	if s.Mean < -140 || s.Mean > -110 {
		t.Errorf("mean RSSI = %.1f dBm, want in [-140, -110]", s.Mean)
	}
	if s.Min < -145 {
		t.Errorf("min RSSI = %.1f below plausible decode floor", s.Min)
	}
}

func TestRSSIDecreasesWithDistance(t *testing.T) {
	// Fig. 3c: signal strength falls with slant range.
	res := smallPassive(t)
	pts := res.RSSIVsDistance("Tianqi", 300, 3000)
	if len(pts) < 3 {
		t.Fatalf("too few distance bins: %d", len(pts))
	}
	if first, last := pts[0], pts[len(pts)-1]; last.Y >= first.Y {
		t.Errorf("RSSI at %v km (%.1f) not below RSSI at %v km (%.1f)",
			last.X, last.Y, first.X, first.Y)
	}
	if res.RSSIVsDistance("Tianqi", 0, 3000) != nil {
		t.Error("zero bin width accepted")
	}
}

func TestTianqiDistancesLongerThan500kmClass(t *testing.T) {
	// Fig. 8: Tianqi's higher orbit yields longer DtS distances than the
	// ~500 km constellations.
	res := smallPassive(t)
	tq, err := res.DistanceCDF("Tianqi")
	if err != nil {
		t.Fatal(err)
	}
	pico, err := res.DistanceCDF("PICO")
	if err != nil {
		t.Fatal(err)
	}
	if tq.Quantile(0.5) <= pico.Quantile(0.5) {
		t.Errorf("Tianqi median distance %.0f not above PICO %.0f",
			tq.Quantile(0.5), pico.Quantile(0.5))
	}
}

func TestLargerFleetMoreAvailability(t *testing.T) {
	// Fig. 3a: availability grows with constellation size (Tianqi 12 vs 22).
	hk, _ := SiteByCode("HK")
	run := func(n int) time.Duration {
		res, err := RunPassive(PassiveConfig{
			Seed: 5, Start: campaignStart, Days: 1,
			Sites:          []Site{hk},
			Constellations: []constellation.Constellation{constellation.TianqiSubset(campaignStart, n)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.TheoreticalDailyDuration(constellation.TianqiSubset(campaignStart, n).Name, "HK")
	}
	small, full := run(12), run(22)
	if full <= small {
		t.Errorf("22-sat availability %v not above 12-sat %v", full, small)
	}
}

func TestWeatherReducesReception(t *testing.T) {
	// Fig. 3d: rainy contacts receive fewer beacons than sunny ones.
	hk, _ := SiteByCode("HK")
	run := func(w channel.Weather) float64 {
		res, err := RunPassive(PassiveConfig{
			Seed: 11, Start: campaignStart, Days: 2,
			Sites:          []Site{hk},
			Constellations: []constellation.Constellation{constellation.Tianqi(campaignStart)},
			Weather:        ConstantWeather{State: w},
		})
		if err != nil {
			t.Fatal(err)
		}
		return 1 - res.OverallBeaconLoss("Tianqi")
	}
	sunny, rainy := run(channel.Sunny), run(channel.Rainy)
	if rainy >= sunny {
		t.Errorf("rainy reception %.3f not below sunny %.3f", rainy, sunny)
	}
}

func TestVanillaSchedulerCapturesLess(t *testing.T) {
	// The §2.2 motivation for replacing TinyGS's scheduler: the vanilla
	// round-robin policy misses most of each pass.
	hk, _ := SiteByCode("HK")
	cons := constellation.PICO(campaignStart)
	var catalog []int
	for _, s := range cons.Sats {
		catalog = append(catalog, s.NoradID)
	}
	base := PassiveConfig{
		Seed: 3, Start: campaignStart, Days: 1,
		Sites:          []Site{hk},
		Constellations: []constellation.Constellation{cons},
	}
	tracked, err := RunPassive(base)
	if err != nil {
		t.Fatal(err)
	}
	vanillaCfg := base
	vanillaCfg.Scheduler = groundstation.RoundRobinScheduler{Catalog: catalog, Slot: 10 * time.Minute}
	vanilla, err := RunPassive(vanillaCfg)
	if err != nil {
		t.Fatal(err)
	}
	if vanilla.Dataset.Len() >= tracked.Dataset.Len() {
		t.Errorf("vanilla scheduler captured %d traces, tracking %d — want fewer",
			vanilla.Dataset.Len(), tracked.Dataset.Len())
	}
}

func TestHonorSiteStart(t *testing.T) {
	// A site that comes online after the campaign start contributes no
	// contacts before its start month.
	pgh, _ := SiteByCode("PGH") // starts 2025-02
	res, err := RunPassive(PassiveConfig{
		Seed: 9, Start: campaignStart, Days: 2, // Oct 2024 — before PGH online
		Sites:          []Site{pgh},
		Constellations: []constellation.Constellation{constellation.FOSSA(campaignStart)},
		HonorSiteStart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contacts) != 0 || res.Dataset.Len() != 0 {
		t.Errorf("PGH produced %d contacts before coming online", len(res.Contacts))
	}
}

func TestDopplerWithinLoRaTolerance(t *testing.T) {
	// Appendix C: LEO Doppler at 400-450 MHz peaks around ±10 kHz —
	// within LoRa's static tolerance, so shifts on received beacons must
	// be bounded by physics and below the demodulation wall.
	res := smallPassive(t)
	d := res.Doppler("")
	if d.Summary.N == 0 {
		t.Fatal("no Doppler samples")
	}
	if d.MaxAbsHz > 12000 {
		t.Errorf("max |Doppler| = %.0f Hz exceeds the physical ceiling", d.MaxAbsHz)
	}
	if d.MaxAbsHz < 1000 {
		t.Errorf("max |Doppler| = %.0f Hz implausibly small for LEO", d.MaxAbsHz)
	}
	if d.MaxAbsHz >= d.ToleranceHz {
		t.Errorf("Doppler %.0f Hz at or above the %.0f Hz tolerance", d.MaxAbsHz, d.ToleranceHz)
	}
}

func TestSiteTraceCounts(t *testing.T) {
	res := smallPassive(t)
	counts := res.SiteTraceCounts()
	if len(counts) != 1 || counts[0].Site.Code != "HK" {
		t.Fatalf("counts = %+v", counts)
	}
	if counts[0].Traces != res.Dataset.Len() {
		t.Errorf("HK count %d != dataset %d", counts[0].Traces, res.Dataset.Len())
	}
}

// wetFraction returns the fraction of w's periods that are rainy or
// stormy.
func wetFraction(w *WeatherProcess) float64 {
	if len(w.states) == 0 {
		return 0
	}
	wet := 0
	for _, s := range w.states {
		if s == channel.Rainy || s == channel.Stormy {
			wet++
		}
	}
	return float64(wet) / float64(len(w.states))
}
