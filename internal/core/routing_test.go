package core

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/fault"
	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/sim"
)

// TestRoutingExactModeRecordsTopologyPhase runs a routing campaign on
// exact ephemerides under the sim instruments: the exact-mode build must
// record its topology phase like the interpolated one does, exactly once.
func TestRoutingExactModeRecordsTopologyPhase(t *testing.T) {
	r := obs.New()
	sim.SetMetrics(r)
	defer sim.SetMetrics(nil)
	phase := r.HistogramVec("sinet_sim_phase_seconds", "", "phase", obs.DurationBuckets)
	pico := constellation.PICO(campaignStart)
	if _, err := RunRouting(RoutingConfig{Seed: 1, Days: 1, Constellation: &pico, ExactEphemeris: true}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ephemeris", "topology", "packets"} {
		if got := phase.With(name).Count(); got != 1 {
			t.Errorf("%s phase samples = %d, want 1", name, got)
		}
	}
}

func TestRoutingParallelBitIdenticalToSerial(t *testing.T) {
	cfg := RoutingConfig{Seed: 42, Start: time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC), Days: 1}

	var serial, parallel *RoutingResult
	var errS, errP error
	withGOMAXPROCS(1, func() { serial, errS = RunRouting(cfg) })
	withGOMAXPROCS(4, func() { parallel, errP = RunRouting(cfg) })
	if errS != nil || errP != nil {
		t.Fatal(errS, errP)
	}
	if len(serial.Packets) == 0 {
		t.Fatal("serial run produced no packets — vacuous comparison")
	}
	if !reflect.DeepEqual(serial.Packets, parallel.Packets) {
		t.Error("parallel packet outcomes differ from serial run")
	}
	if !reflect.DeepEqual(serial.Store, parallel.Store) || !reflect.DeepEqual(serial.Relay, parallel.Relay) {
		t.Error("parallel summaries differ from serial run")
	}
	if serial.MeanLiveISLs != parallel.MeanLiveISLs {
		t.Errorf("mean live ISLs differ: %v vs %v", serial.MeanLiveISLs, parallel.MeanLiveISLs)
	}
}

// TestRelayDominatesStore: with every ISL up, relay delivery is never
// later than store-and-forward for any packet delivered by both policies,
// and strictly earlier in aggregate — the paper's motivating gap between
// linkless store-and-forward constellations and ISL meshes. The store
// baseline delivers at window end with no per-hop processing, so the
// per-packet comparison carries a one-second tolerance for the hop delays
// only the relay model charges (a packet born at the last instant of a
// pass "drains free" under the window model but pays ~20 ms of switching
// under relay).
func TestRelayDominatesStore(t *testing.T) {
	res, err := RunRouting(RoutingConfig{Seed: 7, Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.Delivered == 0 || res.Relay.Delivered == 0 {
		t.Fatalf("vacuous: store %d / relay %d delivered", res.Store.Delivered, res.Relay.Delivered)
	}
	both := 0
	for _, p := range res.Packets {
		if p.StoreDelivered && !p.RelayDelivered {
			t.Fatalf("packet %d@%v delivered by store but not relay", p.NoradID, p.Origin)
		}
		if p.StoreDelivered && p.RelayDelivered {
			both++
			if p.RelayAt.After(p.StoreAt.Add(time.Second)) {
				t.Fatalf("packet %d@%v: relay %v later than store %v", p.NoradID, p.Origin, p.RelayAt, p.StoreAt)
			}
		}
	}
	if both == 0 {
		t.Fatal("no packet delivered by both policies")
	}
	if res.Relay.MeanSec >= res.Store.MeanSec {
		t.Errorf("relay mean %.0fs not better than store mean %.0fs", res.Relay.MeanSec, res.Store.MeanSec)
	}
	if res.Relay.P50Sec >= res.Store.P50Sec {
		t.Errorf("relay p50 %.0fs not better than store p50 %.0fs", res.Relay.P50Sec, res.Store.P50Sec)
	}
}

// TestRoutingDegradesUnderLinkChurn: with ISLs churned out essentially
// from t=0 (1 ns MTBF, campaign-length MTTR) and drain stations flapping,
// relay routing degrades to store-and-forward — zero ISL hops — while
// still delivering no later than the store policy, which shares the same
// fault-thinned downlink windows. The seeded Gilbert schedules make the
// extreme parameters deterministic, not flaky.
func TestRoutingDegradesUnderLinkChurn(t *testing.T) {
	cfg := RoutingConfig{
		Seed: 11,
		Days: 1,
		Faults: &fault.Config{
			LinkMTBF:  time.Nanosecond,
			LinkMTTR:  10000 * time.Hour,
			DrainMTBF: 6 * time.Hour,
			DrainMTTR: 2 * time.Hour,
		},
	}
	res, err := RunRouting(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relay.Delivered == 0 {
		t.Fatal("nothing delivered under churn — vacuous")
	}
	for _, p := range res.Packets {
		// Gilbert processes start up, so links are up for ~1 ns at the
		// campaign start; only the snapshot-0 instant can see them.
		if !p.Origin.After(cfg.Start) {
			continue
		}
		if p.RelayDelivered && p.RelayISLHops != 0 {
			t.Fatalf("packet %d@%v used %d ISL hops with all links churned out", p.NoradID, p.Origin, p.RelayISLHops)
		}
		// Same one-second hop-delay tolerance as TestRelayDominatesStore.
		if p.StoreDelivered && p.RelayDelivered && p.RelayAt.After(p.StoreAt.Add(time.Second)) {
			t.Fatalf("packet %d@%v: degraded relay %v later than store %v", p.NoradID, p.Origin, p.RelayAt, p.StoreAt)
		}
	}

	// ISLs buy latency: the same campaign without link churn has a
	// strictly better relay mean (drain faults kept identical).
	healthy, err := RunRouting(RoutingConfig{
		Seed: 11,
		Days: 1,
		Faults: &fault.Config{
			DrainMTBF: 6 * time.Hour,
			DrainMTTR: 2 * time.Hour,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Relay.MeanSec >= res.Relay.MeanSec {
		t.Errorf("relay with ISLs (mean %.0fs) not better than churned-out relay (mean %.0fs)",
			healthy.Relay.MeanSec, res.Relay.MeanSec)
	}
}

func TestRoutingPolicySelection(t *testing.T) {
	store, err := RunRouting(RoutingConfig{Seed: 3, Days: 1, Policy: PolicyStore})
	if err != nil {
		t.Fatal(err)
	}
	if store.Store.Generated == 0 || store.Relay.Generated != 0 {
		t.Errorf("store policy ran store=%d relay=%d packets", store.Store.Generated, store.Relay.Generated)
	}
	for _, p := range store.Packets {
		if p.RelayDelivered {
			t.Fatal("store-only campaign produced a relay delivery")
		}
	}
	relay, err := RunRouting(RoutingConfig{Seed: 3, Days: 1, Policy: PolicyRelay})
	if err != nil {
		t.Fatal(err)
	}
	if relay.Relay.Generated == 0 || relay.Store.Generated != 0 {
		t.Errorf("relay policy ran store=%d relay=%d packets", relay.Store.Generated, relay.Relay.Generated)
	}
}

func TestRoutingConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  RoutingConfig
	}{
		{"negative days", RoutingConfig{Days: -1}},
		{"negative snapshot step", RoutingConfig{SnapshotStep: -time.Second}},
		{"NaN ISL range", RoutingConfig{MaxISLRangeKm: math.NaN()}},
		{"negative hop processing", RoutingConfig{HopProcessing: -time.Millisecond}},
		{"negative packet interval", RoutingConfig{PacketInterval: -time.Minute}},
		{"unknown policy", RoutingConfig{Policy: "teleport"}},
		{"bad faults", RoutingConfig{Faults: &fault.Config{LinkMTBF: time.Hour}}},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: error %v does not wrap ErrInvalidConfig", tc.name, err)
		}
	}
	if err := (RoutingConfig{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	if _, err := RunRouting(RoutingConfig{Days: -1}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("RunRouting accepted an invalid config: %v", err)
	}
}

func TestRoutingResultJSONRoundTrip(t *testing.T) {
	res, err := RunRouting(RoutingConfig{Seed: 5, Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back RoutingResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Store != res.Store || back.Relay != res.Relay {
		t.Error("summaries did not round-trip")
	}
	if len(back.Packets) != len(res.Packets) {
		t.Fatalf("packet count %d, want %d", len(back.Packets), len(res.Packets))
	}
	if !reflect.DeepEqual(back.Packets[0], res.Packets[0]) {
		t.Error("packets did not round-trip")
	}
}
