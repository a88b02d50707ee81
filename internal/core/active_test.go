package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/channel"
	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/energy"
	"github.com/sinet-io/sinet/internal/mac"
	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/satellite"
)

// cachedActive memoizes a 3-day default active run shared across tests.
var cachedActive *ActiveResult

func smallActive(t *testing.T) *ActiveResult {
	t.Helper()
	if cachedActive != nil {
		return cachedActive
	}
	res, err := RunActive(ActiveConfig{Seed: 42, Days: 3, Policy: mac.DefaultRetxPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	cachedActive = res
	return res
}

func TestActivePacketAccounting(t *testing.T) {
	res := smallActive(t)
	// 3 nodes × 48 packets/day × 3 days.
	if want := 3 * 48 * 3; len(res.Packets) != want {
		t.Fatalf("packets = %d, want %d", len(res.Packets), want)
	}
	seen := map[string]map[uint64]bool{}
	for _, p := range res.Packets {
		if seen[p.Node] == nil {
			seen[p.Node] = map[uint64]bool{}
		}
		if seen[p.Node][p.SeqID] {
			t.Fatalf("duplicate packet %s/%d", p.Node, p.SeqID)
		}
		seen[p.Node][p.SeqID] = true
	}
	if len(seen) != 3 {
		t.Errorf("nodes = %d", len(seen))
	}
}

func TestActiveCausalOrdering(t *testing.T) {
	res := smallActive(t)
	for _, p := range res.Packets {
		if !p.FirstAttemptAt.IsZero() && p.FirstAttemptAt.Before(p.GeneratedAt) {
			t.Fatalf("%s/%d attempted before generated", p.Node, p.SeqID)
		}
		if !p.UplinkedAt.IsZero() {
			if p.FirstAttemptAt.IsZero() {
				t.Fatalf("%s/%d uplinked without attempt", p.Node, p.SeqID)
			}
			if p.UplinkedAt.Before(p.FirstAttemptAt) {
				t.Fatalf("%s/%d uplinked before first attempt", p.Node, p.SeqID)
			}
		}
		if !p.ServerAt.IsZero() {
			if p.UplinkedAt.IsZero() {
				t.Fatalf("%s/%d delivered without uplink", p.Node, p.SeqID)
			}
			if p.ServerAt.Before(p.UplinkedAt) {
				t.Fatalf("%s/%d delivered before uplink", p.Node, p.SeqID)
			}
		}
		if p.Attempts > res.Config.Policy.MaxAttempts() {
			t.Fatalf("%s/%d used %d attempts, budget %d", p.Node, p.SeqID, p.Attempts, res.Config.Policy.MaxAttempts())
		}
	}
}

func TestActiveReliabilityBand(t *testing.T) {
	// Fig. 5a: with 5 retransmissions Tianqi reaches ~96%.
	res := smallActive(t)
	rel := res.Reliability()
	if rel < 0.90 || rel > 1.0 {
		t.Errorf("reliability with retx = %.3f, want ≥0.90 (paper: 0.96)", rel)
	}
}

func TestRetxImprovesReliability(t *testing.T) {
	// Fig. 5a: enabling retransmissions improves end-to-end reliability.
	noRetx, err := RunActive(ActiveConfig{Seed: 42, Days: 2, Policy: mac.NoRetxPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	withRetx, err := RunActive(ActiveConfig{Seed: 42, Days: 2, Policy: mac.DefaultRetxPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	if withRetx.Reliability() <= noRetx.Reliability() {
		t.Errorf("retx did not help: %.3f vs %.3f", withRetx.Reliability(), noRetx.Reliability())
	}
	// Both regimes beat 75% (paper: 91% and 96%).
	if noRetx.Reliability() < 0.75 {
		t.Errorf("no-retx reliability %.3f too low", noRetx.Reliability())
	}
}

func TestActiveLatencyShape(t *testing.T) {
	// Fig. 5c/5d: hour-scale total latency decomposed into wait / DtS /
	// delivery, dominated by wait + delivery.
	res := smallActive(t)
	lb := res.Latency()
	if lb.N == 0 {
		t.Fatal("no delivered packets")
	}
	if lb.Total < 30*time.Minute || lb.Total > 6*time.Hour {
		t.Errorf("total latency %v outside the paper's hour-scale regime", lb.Total)
	}
	if lb.Wait <= 0 || lb.Delivery <= 0 {
		t.Error("wait/delivery segments must be positive")
	}
	if lb.DtS >= lb.Wait && lb.DtS >= lb.Delivery {
		t.Errorf("DtS segment %v should be the smallest (wait %v, delivery %v)", lb.DtS, lb.Wait, lb.Delivery)
	}
}

func TestSatelliteVsTerrestrialLatencyGap(t *testing.T) {
	// Fig. 5c: 643.6× latency gap. Assert ≥ two orders of magnitude.
	sat := smallActive(t)
	terr, err := RunTerrestrial(TerrestrialConfig{Seed: 42, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	satLat := sat.Latency().Total
	terrLat, n := terr.MeanLatency()
	if n == 0 {
		t.Fatal("no terrestrial deliveries")
	}
	ratio := float64(satLat) / float64(terrLat)
	if ratio < 100 {
		t.Errorf("latency ratio = %.0f×, want ≥100× (paper: 643.6×)", ratio)
	}
	if terr.Reliability() < 0.99 {
		t.Errorf("terrestrial reliability %.3f, want ≈1.0", terr.Reliability())
	}
}

func TestAckLossCausesUnnecessaryRetx(t *testing.T) {
	// §3.2's contradiction: ~50% of packets retransmit even though no-retx
	// reliability exceeds 90% — ACK losses force spurious retries.
	res := smallActive(t)
	if res.MacStats.AckLosses == 0 {
		t.Fatal("no ACK losses simulated")
	}
	if res.MacStats.UnnecessaryRetx == 0 {
		t.Fatal("ACK losses produced no unnecessary retransmissions")
	}
	zero := res.ZeroRetxFraction()
	if zero < 0.3 || zero > 0.85 {
		t.Errorf("zero-retx fraction = %.2f, want around the paper's ~0.5", zero)
	}
}

func TestWorseAntennaMoreRetx(t *testing.T) {
	// Fig. 5b: 1/4λ under rain needs more retransmissions than 5/8λ sunny.
	best, err := RunActive(ActiveConfig{
		Seed: 7, Days: 2, Policy: mac.DefaultRetxPolicy(),
		NodeAntenna: channel.FiveEighthsWave,
		Weather:     ConstantWeather{State: channel.Sunny},
	})
	if err != nil {
		t.Fatal(err)
	}
	worst, err := RunActive(ActiveConfig{
		Seed: 7, Days: 2, Policy: mac.DefaultRetxPolicy(),
		NodeAntenna: channel.QuarterWave,
		Weather:     ConstantWeather{State: channel.Rainy},
	})
	if err != nil {
		t.Fatal(err)
	}
	if worst.MeanRetx() <= best.MeanRetx() {
		t.Errorf("1/4λ rainy retx %.2f not above 5/8λ sunny %.2f", worst.MeanRetx(), best.MeanRetx())
	}
}

func TestEnergyComparisonShape(t *testing.T) {
	// Fig. 6: satellite node drains an order of magnitude faster; Rx
	// hang-on dominates its energy.
	sat := smallActive(t)
	terr, err := RunTerrestrial(TerrestrialConfig{Seed: 42, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	ec := CompareEnergy(sat, terr, energy.DefaultBattery())
	if ec.PowerRatio < 8 || ec.PowerRatio > 25 {
		t.Errorf("power ratio = %.1f×, want order ~15× (paper: 14.9×)", ec.PowerRatio)
	}
	if ec.SatLifetimeDays >= ec.TerrLifetimeDays {
		t.Error("satellite node must not outlive terrestrial node")
	}
	// The satellite node's energy is Rx-dominated; the terrestrial node's
	// time is sleep-dominated.
	if ec.SatBreakdown[energy.Rx].EnergyFrac < 0.5 {
		t.Errorf("satellite Rx energy fraction = %.2f", ec.SatBreakdown[energy.Rx].EnergyFrac)
	}
	if ec.TerrBreakdown[energy.Sleep].TimeFrac < 0.9 {
		t.Errorf("terrestrial sleep time fraction = %.2f", ec.TerrBreakdown[energy.Sleep].TimeFrac)
	}
}

func TestSleepWhenIdleSavesEnergy(t *testing.T) {
	// The paper's called-for optimization: sleeping between bursts.
	stock, err := RunActive(ActiveConfig{Seed: 9, Days: 1, Policy: mac.DefaultRetxPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	optimized, err := RunActive(ActiveConfig{Seed: 9, Days: 1, Policy: mac.DefaultRetxPolicy(), SleepWhenIdle: true})
	if err != nil {
		t.Fatal(err)
	}
	stockP, _ := averageMeters(stock.Meters)
	optP, _ := averageMeters(optimized.Meters)
	if optP >= stockP {
		t.Errorf("sleep-when-idle power %.1f mW not below stock %.1f mW", optP, stockP)
	}
}

func TestPayloadSizeReducesReliability(t *testing.T) {
	// Fig. 12a: larger payloads are less reliable.
	run := func(payload int) float64 {
		res, err := RunActive(ActiveConfig{Seed: 11, Days: 2, Policy: mac.NoRetxPolicy(), PayloadBytes: payload})
		if err != nil {
			t.Fatal(err)
		}
		return res.Reliability()
	}
	r10, r120 := run(10), run(120)
	if r120 >= r10 {
		t.Errorf("120B reliability %.3f not below 10B %.3f", r120, r10)
	}
}

func TestConcurrencyReducesReliability(t *testing.T) {
	// Fig. 12b: aligned simultaneous transmissions lower reliability, but
	// it stays high (capture + retx), per the paper's 94/92/89%. The
	// 3-concurrent group collects only ~7 packets/day, so the campaign
	// needs several weeks before the directional comparison rises above
	// binomial noise.
	res, err := RunActive(ActiveConfig{
		Seed: 13, Days: 24, Nodes: 3,
		Policy: mac.NoRetxPolicy(), AlignedPhases: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	byConc := res.ReliabilityByConcurrency()
	r1, ok1 := byConc[1]
	r3, ok3 := byConc[3]
	if !ok1 || !ok3 {
		t.Fatalf("missing concurrency groups: %v", byConc)
	}
	if r3 > r1+0.03 {
		t.Errorf("3-way simultaneous reliability %.3f above single %.3f", r3, r1)
	}
	if r3 < 0.55 {
		t.Errorf("3-way reliability %.3f collapsed (paper: 0.89)", r3)
	}
}

func TestActiveDeterministic(t *testing.T) {
	cfg := ActiveConfig{Seed: 21, Days: 1, Policy: mac.DefaultRetxPolicy()}
	a, err := RunActive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunActive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Packets) != len(b.Packets) {
		t.Fatalf("packet counts differ: %d vs %d", len(a.Packets), len(b.Packets))
	}
	for i := range a.Packets {
		if *a.Packets[i] != *b.Packets[i] {
			t.Fatalf("packet %d differs:\n%+v\n%+v", i, a.Packets[i], b.Packets[i])
		}
	}
	if a.MacStats != b.MacStats {
		t.Error("mac stats differ")
	}
}

func TestPerGroupReliability(t *testing.T) {
	res := smallActive(t)
	groups := res.PerGroupReliability()
	// 3 nodes × 3 days.
	if len(groups) != 9 {
		t.Errorf("groups = %d, want 9", len(groups))
	}
	for _, g := range groups {
		if g < 0 || g > 1 {
			t.Errorf("group reliability %v out of range", g)
		}
	}
	if f := FractionReaching(groups, 0.0); f != 1 {
		t.Errorf("FractionReaching(0) = %v", f)
	}
	if f := FractionReaching(nil, 0.9); f != 0 {
		t.Errorf("FractionReaching(empty) = %v", f)
	}
}

func TestTerrestrialDeterministic(t *testing.T) {
	cfg := TerrestrialConfig{Seed: 5, Days: 1}
	a, err := RunTerrestrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTerrestrial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Packets) != len(b.Packets) {
		t.Fatal("terrestrial packet counts differ")
	}
	for i := range a.Packets {
		if a.Packets[i] != b.Packets[i] {
			t.Fatalf("terrestrial packet %d differs", i)
		}
	}
}

// TestPlanBeaconsMarshalAsPerPassSlices: slicing every pass from one
// array changes no unit byte. A plan marshals as it did with one
// BeaconTimes slice per pass, empty passes and a zero beacon interval
// included, and its flat series holds the passes' beacons in order.
func TestPlanBeaconsMarshalAsPerPassSlices(t *testing.T) {
	start := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	props, err := constellation.Tianqi(start).Propagators()
	if err != nil {
		t.Fatal(err)
	}
	passes := []orbit.Pass{
		{AOS: start.Add(time.Hour), LOS: start.Add(time.Hour + 10*time.Minute)},
		{AOS: start.Add(2 * time.Hour), LOS: start.Add(2 * time.Hour)},
		{AOS: start.Add(3*time.Hour + 7*time.Second), LOS: start.Add(3*time.Hour + 3*time.Minute)},
	}
	for _, interval := range []time.Duration{20 * time.Second, 0} {
		gw := satellite.NewGateway(props[0], interval, 0)
		var want satPlan
		var flat []time.Time
		for _, pass := range passes {
			bts := gw.AppendBeaconTimes(nil, pass.AOS, pass.LOS)
			want.Beacons = append(want.Beacons, bts)
			flat = append(flat, bts...)
		}
		var got satPlan
		planBeacons(&got, gw, passes)
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("interval %v: plan marshals as\n%s\nwant\n%s", interval, gotJSON, wantJSON)
		}
		if !slices.EqualFunc(got.beacons(), flat, time.Time.Equal) {
			t.Fatalf("interval %v: flat beacons %v, want %v", interval, got.beacons(), flat)
		}
		var decoded satPlan
		if err := json.Unmarshal(gotJSON, &decoded); err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(decoded.beacons(), flat, time.Time.Equal) {
			t.Fatalf("interval %v: a decoded plan's beacons %v, want %v", interval, decoded.beacons(), flat)
		}
	}
}
