package service

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/netgraph"
)

func TestNormalizeAppliesPassiveDefaults(t *testing.T) {
	spec := &JobSpec{Kind: KindPassive}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	p := spec.Passive
	if p == nil {
		t.Fatal("Normalize did not create the passive section")
	}
	if p.Days != 1 {
		t.Errorf("Days = %d, want 1", p.Days)
	}
	if want := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC); !p.Start.Equal(want) {
		t.Errorf("Start = %v, want %v", p.Start, want)
	}
	if len(p.Sites) != 4 || p.Sites[0] != "HK" {
		t.Errorf("Sites = %v, want the four continental sites", p.Sites)
	}
	if len(p.Constellations) != 4 {
		t.Errorf("Constellations = %v, want all four", p.Constellations)
	}
	if p.Scheduler != "tracking" {
		t.Errorf("Scheduler = %q, want tracking", p.Scheduler)
	}
	if time.Duration(p.CoarseStep) != 60*time.Second {
		t.Errorf("CoarseStep = %v, want 60s", time.Duration(p.CoarseStep))
	}
}

func TestNormalizeAppliesActiveDefaults(t *testing.T) {
	spec := &JobSpec{Kind: KindActive}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	a := spec.Active
	if a.Nodes != 3 || a.PayloadBytes != 20 || a.Constellation != "Tianqi" || a.Antenna != "fiveeighths" {
		t.Errorf("active defaults wrong: %+v", a)
	}
	if time.Duration(a.SensePeriod) != 30*time.Minute || time.Duration(a.AckTimeout) != 3*time.Second {
		t.Errorf("active timing defaults wrong: %+v", a)
	}
}

func TestNormalizeAppliesCoverageAndBackhaulDefaults(t *testing.T) {
	cov := &JobSpec{Kind: KindCoverage}
	if err := cov.Normalize(); err != nil {
		t.Fatal(err)
	}
	if len(cov.Coverage.LatitudesDeg) != 9 || cov.Coverage.Constellation != "Tianqi" {
		t.Errorf("coverage defaults wrong: %+v", cov.Coverage)
	}
	bh := &JobSpec{Kind: KindBackhaul}
	if err := bh.Normalize(); err != nil {
		t.Fatal(err)
	}
	if time.Duration(bh.Backhaul.Step) != time.Minute || time.Duration(bh.Backhaul.MinDrainGap) != 150*time.Minute {
		t.Errorf("backhaul defaults wrong: %+v", bh.Backhaul)
	}
}

func TestNormalizeRejections(t *testing.T) {
	cases := []struct {
		name string
		spec *JobSpec
		want string
	}{
		{"missing kind", &JobSpec{}, "kind is required"},
		{"unknown kind", &JobSpec{Kind: "teleport"}, "unknown kind"},
		{"two sections", &JobSpec{Kind: KindPassive, Passive: &PassiveSpec{}, Coverage: &CoverageSpec{}}, "exactly one parameter section"},
		{"section of another kind", &JobSpec{Kind: KindPassive, Active: &ActiveSpec{Seed: 1}}, `kind "passive" cannot take the "active" section`},
		{"negative days", &JobSpec{Kind: KindPassive, Passive: &PassiveSpec{Days: -1}}, "days must be non-negative"},
		{"days over limit", &JobSpec{Kind: KindCoverage, Coverage: &CoverageSpec{Days: maxDays + 1}}, "exceeds the serving limit"},
		{"unknown site", &JobSpec{Kind: KindPassive, Passive: &PassiveSpec{Sites: []string{"ATLANTIS"}}}, "unknown site"},
		{"unknown constellation", &JobSpec{Kind: KindPassive, Passive: &PassiveSpec{Constellations: []string{"Starlink9000"}}}, "unknown constellation"},
		{"unknown scheduler", &JobSpec{Kind: KindPassive, Passive: &PassiveSpec{Scheduler: "psychic"}}, "unknown scheduler"},
		{"unknown weather", &JobSpec{Kind: KindPassive, Passive: &PassiveSpec{Weather: "hail"}}, "unknown weather"},
		{"negative coarse step", &JobSpec{Kind: KindPassive, Passive: &PassiveSpec{CoarseStep: Duration(-time.Second)}}, "coarse_step must be non-negative"},
		{"nodes over limit", &JobSpec{Kind: KindActive, Active: &ActiveSpec{Nodes: maxNodes + 1}}, "exceeds the serving limit"},
		{"negative retx", &JobSpec{Kind: KindActive, Active: &ActiveSpec{MaxRetx: -1}}, "max_retx must be non-negative"},
		{"unknown antenna", &JobSpec{Kind: KindActive, Active: &ActiveSpec{Antenna: "dish"}}, "unknown antenna"},
		{"latitude out of range", &JobSpec{Kind: KindCoverage, Coverage: &CoverageSpec{LatitudesDeg: []float64{91}}}, "out of [-90, 90]"},
		{"too many latitudes", &JobSpec{Kind: KindCoverage, Coverage: &CoverageSpec{LatitudesDeg: make([]float64, maxLatitudes+1)}}, "exceeds the serving limit"},
		{"negative backhaul step", &JobSpec{Kind: KindBackhaul, Backhaul: &BackhaulSpec{Step: Duration(-1)}}, "must be non-negative"},
		{"snapshot step too fine", &JobSpec{Kind: KindRouting, Routing: &RoutingSpec{SnapshotStep: Duration(10 * time.Microsecond)}}, "snapshot_step 10µs is finer than the serving limit"},
		{"packet interval too fine", &JobSpec{Kind: KindRouting, Routing: &RoutingSpec{PacketInterval: Duration(10 * time.Microsecond)}}, "packet_interval 10µs is finer than the serving limit"},
		{"backhaul step too fine", &JobSpec{Kind: KindBackhaul, Backhaul: &BackhaulSpec{Step: Duration(time.Microsecond)}}, "step 1µs is finer than the serving limit"},
		{"coarse step too fine", &JobSpec{Kind: KindPassive, Passive: &PassiveSpec{CoarseStep: Duration(time.Microsecond)}}, "coarse_step 1µs is finer than the serving limit"},
		{"sense period too fine", &JobSpec{Kind: KindActive, Active: &ActiveSpec{SensePeriod: Duration(10 * time.Microsecond)}}, "sense_period 10µs is finer than the serving limit"},
		{"snapshot step just under the one-day floor", &JobSpec{Kind: KindRouting, Routing: &RoutingSpec{SnapshotStep: Duration(162 * time.Millisecond)}}, "finer than the serving limit 162.162162ms for a 1-day campaign"},
		{"negative ack timeout", &JobSpec{Kind: KindActive, Active: &ActiveSpec{AckTimeout: Duration(-time.Second)}}, "ack_timeout must be non-negative, got -1s"},
		{"negative sense period", &JobSpec{Kind: KindActive, Active: &ActiveSpec{SensePeriod: Duration(-time.Second)}}, "sense_period must be non-negative, got -1s"},
		{"negative hop processing", &JobSpec{Kind: KindRouting, Routing: &RoutingSpec{HopProcessing: Duration(-1)}}, "hop_processing must be non-negative"},
		{"negative min drain gap", &JobSpec{Kind: KindBackhaul, Backhaul: &BackhaulSpec{MinDrainGap: Duration(-1)}}, "min_drain_gap must be non-negative"},
		{"passive past year 9999", &JobSpec{Kind: KindPassive, Passive: &PassiveSpec{Start: time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC)}}, "start 9999-12-31T00:00:00Z plus 1 days runs past year 9999"},
		{"active past year 9999", &JobSpec{Kind: KindActive, Active: &ActiveSpec{Start: time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC)}}, "runs past year 9999"},
		{"routing past year 9999", &JobSpec{Kind: KindRouting, Routing: &RoutingSpec{Start: time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC)}}, "runs past year 9999"},
		{"offset start before year 0 UTC", &JobSpec{Kind: KindCoverage, Coverage: &CoverageSpec{Start: time.Date(0, 1, 1, 0, 0, 0, 0, time.FixedZone("", 5*3600))}}, "start -0001-12-31T19:00:00Z is before year 0"},
		{"offset start in year 10000 UTC", &JobSpec{Kind: KindCoverage, Coverage: &CoverageSpec{Start: time.Date(9999, 12, 31, 23, 0, 0, 0, time.FixedZone("", -5*3600))}}, "start 10000-01-01T04:00:00Z plus 1 days runs past year 9999"},
	}
	for _, tc := range cases {
		err := tc.spec.Normalize()
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: error %v does not wrap ErrBadSpec", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCadenceLimitAdmitsDefaults pins the accepting side of the cadence
// rule: every kind at its default cadences over the longest span served,
// and one-day cadences just above their floors (162.2 ms under one-minute
// defaults, 4.86 s under thirty-minute ones). It also pins the accepting
// side of the span bound: an active day ending one grace day before year
// 10000.
func TestCadenceLimitAdmitsDefaults(t *testing.T) {
	specs := []*JobSpec{
		{Kind: KindPassive, Passive: &PassiveSpec{Days: maxDays}},
		{Kind: KindActive, Active: &ActiveSpec{Days: maxDays}},
		{Kind: KindCoverage, Coverage: &CoverageSpec{Days: maxDays}},
		{Kind: KindBackhaul, Backhaul: &BackhaulSpec{Days: maxDays}},
		{Kind: KindRouting, Routing: &RoutingSpec{Days: maxDays}},
		{Kind: KindRouting, Routing: &RoutingSpec{SnapshotStep: Duration(200 * time.Millisecond)}},
		{Kind: KindActive, Active: &ActiveSpec{SensePeriod: Duration(5 * time.Second)}},
		{Kind: KindActive, Active: &ActiveSpec{Start: time.Date(9999, 12, 30, 0, 0, 0, 0, time.UTC)}},
	}
	for _, spec := range specs {
		if err := spec.Normalize(); err != nil {
			t.Errorf("%s spec rejected: %v", spec.Kind, err)
		}
	}
}

func TestDurationJSONForms(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"90m"`), &d); err != nil || time.Duration(d) != 90*time.Minute {
		t.Fatalf(`"90m" -> %v, %v`, time.Duration(d), err)
	}
	if err := json.Unmarshal([]byte(`5000000000`), &d); err != nil || time.Duration(d) != 5*time.Second {
		t.Fatalf(`5000000000 -> %v, %v`, time.Duration(d), err)
	}
	if err := json.Unmarshal([]byte(`"eleventy"`), &d); err == nil {
		t.Fatal("bad duration string accepted")
	}
	out, err := json.Marshal(Duration(90 * time.Minute))
	if err != nil || string(out) != `"1h30m0s"` {
		t.Fatalf("marshal = %s, %v", out, err)
	}
}

func TestSpecJSONRoundTripKeepsKey(t *testing.T) {
	spec := &JobSpec{Kind: KindPassive, Passive: &PassiveSpec{
		Seed:       42,
		Sites:      []string{"HK", "SYD"},
		CoarseStep: Duration(30 * time.Second),
		Faults:     &FaultSpec{StationMTBF: Duration(48 * time.Hour), StationMTTR: Duration(6 * time.Hour)},
	}}
	k1, err := ConfigKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back JobSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	k2, err := ConfigKey(&back)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("JSON round-trip moved the key: %s -> %s", k1, k2)
	}
}

func TestNormalizeAppliesRoutingDefaults(t *testing.T) {
	spec := &JobSpec{Kind: KindRouting}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	r := spec.Routing
	if r == nil {
		t.Fatal("Normalize did not create the routing section")
	}
	if r.Days != 1 || r.Constellation != "Tianqi" || r.Policy != "compare" {
		t.Errorf("routing defaults wrong: %+v", r)
	}
	if time.Duration(r.SnapshotStep) != netgraph.DefaultSnapshotStep {
		t.Errorf("SnapshotStep = %v", time.Duration(r.SnapshotStep))
	}
	if r.MaxISLRangeKm != netgraph.DefaultMaxISLRangeKm {
		t.Errorf("MaxISLRangeKm = %v", r.MaxISLRangeKm)
	}
	if time.Duration(r.HopProcessing) != netgraph.DefaultHopProcessing {
		t.Errorf("HopProcessing = %v", time.Duration(r.HopProcessing))
	}
	if time.Duration(r.PacketInterval) != 30*time.Minute {
		t.Errorf("PacketInterval = %v", time.Duration(r.PacketInterval))
	}

	// Normalize is idempotent: a second pass changes nothing, so sparse
	// and explicit-default routing specs share one content key.
	before := *r
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	if *spec.Routing != before {
		t.Errorf("second Normalize moved the spec: %+v -> %+v", before, *spec.Routing)
	}
	k1, err := ConfigKey(&JobSpec{Kind: KindRouting})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ConfigKey(&JobSpec{Kind: KindRouting, Routing: &RoutingSpec{Days: 1, Policy: "COMPARE"}})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("sparse and explicit-default routing specs have different keys: %s vs %s", k1, k2)
	}
}

func TestNormalizeRoutingRejections(t *testing.T) {
	cases := []struct {
		name string
		spec *JobSpec
		want string
	}{
		{"unknown policy", &JobSpec{Kind: KindRouting, Routing: &RoutingSpec{Policy: "teleport"}}, "unknown policy"},
		{"days over limit", &JobSpec{Kind: KindRouting, Routing: &RoutingSpec{Days: maxDays + 1}}, "exceeds the serving limit"},
		{"negative snapshot step", &JobSpec{Kind: KindRouting, Routing: &RoutingSpec{SnapshotStep: Duration(-1)}}, "must be non-negative"},
		{"unknown constellation", &JobSpec{Kind: KindRouting, Routing: &RoutingSpec{Constellation: "Starlink9000"}}, "unknown constellation"},
		{"link pair half set", &JobSpec{Kind: KindRouting, Routing: &RoutingSpec{Faults: &FaultSpec{LinkMTBF: Duration(time.Hour)}}}, "link MTBF and MTTR"},
	}
	for _, tc := range cases {
		err := tc.spec.Normalize()
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: error %v does not wrap ErrBadSpec", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestUnknownKindErrorEnumeratesKinds(t *testing.T) {
	err := (&JobSpec{Kind: "teleport"}).Normalize()
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, k := range kinds {
		if !strings.Contains(err.Error(), k.name) {
			t.Errorf("unknown-kind error %q does not list %q", err, k.name)
		}
	}
	if !strings.Contains(err.Error(), KindRouting) {
		t.Errorf("unknown-kind error %q does not list routing", err)
	}
}

// TestRegistryCoversEverySection pins the registry to JobSpec: every
// parameter section a spec can carry belongs to exactly one registered
// kind, named like the section's JSON field. A section missing from the
// registry would slip past Normalize's other-kind check.
func TestRegistryCoversEverySection(t *testing.T) {
	sectionType := reflect.TypeOf((*section)(nil)).Elem()
	typ := reflect.TypeOf(JobSpec{})
	sections := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.Type.Implements(sectionType) {
			continue
		}
		sections++
		spec := &JobSpec{}
		reflect.ValueOf(spec).Elem().Field(i).Set(reflect.New(f.Type.Elem()))
		var owners []string
		for _, k := range kinds {
			if k.section(spec, false) != nil {
				owners = append(owners, k.name)
			}
		}
		jsonName, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if len(owners) != 1 || owners[0] != jsonName {
			t.Errorf("section %s (json %q) is registered under kinds %v, want exactly [%s]", f.Name, jsonName, owners, jsonName)
		}
	}
	if sections != len(kinds) {
		t.Errorf("JobSpec has %d sections, registry has %d kinds", sections, len(kinds))
	}
}
