package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/core"
	"github.com/sinet-io/sinet/internal/netgraph"
	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/sim"
)

// memoKinds is a set of memo entry kinds.
type memoKinds uint8

const (
	hitGrid memoKinds = 1 << iota
	hitPlan
	hitTopology
	hitPackets
	hitOrbit
)

// memoKindLabels are the memo series' kind labels, in memoKinds bit order.
var memoKindLabels = []string{"grid", "plan", "topology", "packets", "orbit"}

// memoRow changes one field of a kind's base spec.
type memoRow struct {
	// field is the section field's JSON name, "faults.<name>" for a
	// FaultSpec field.
	field string
	// value is the JSON the field is set to; a FaultSpec field's row sets
	// the whole faults object, since an MTBF and its MTTR go together.
	value string
	// hit holds the kinds whose lookups the warmed memo must answer: the
	// field lies outside those keys. miss holds the kinds whose lookups
	// must miss: the field is in those keys. A kind in neither is not
	// looked up.
	hit, miss memoKinds
}

// faultRows covers every FaultSpec field. No fault reaches a key: it
// leaves an entry's key alone, or it reaches the seed-dependent part of
// a campaign and the entry is not looked up. hit reports the kinds a
// fault pair leaves keyed.
func faultRows(hit func(pair string) memoKinds) []memoRow {
	var rows []memoRow
	for _, pair := range []string{"station", "drain", "sat", "link"} {
		rows = append(rows,
			memoRow{"faults." + pair + "_mtbf", fmt.Sprintf(`{"%s_mtbf":"12h","%s_mttr":"1h"}`, pair, pair), hit(pair), 0},
			memoRow{"faults." + pair + "_mttr", fmt.Sprintf(`{"%s_mtbf":"12h","%s_mttr":"2h"}`, pair, pair), hit(pair), 0})
	}
	return append(rows, memoRow{"faults.maintenance",
		`{"maintenance":[{"start":"2024-09-01T02:00:00Z","end":"2024-09-01T05:00:00Z"}]}`, hit("maintenance"), 0})
}

// memoKeyTable holds, per kind, a small base spec and one row per field
// of its section. A row whose grid misses looks its trajectory up: the
// orbit kind hits when the grid rotates held samples and misses when SGP4
// runs. Rows run in order through one memo, which the base spec filled
// with its grids and their trajectories' notes; the start row runs the
// base's trajectories at another start, so it runs SGP4 and files their
// samples. The later rows that change only the scan step, to one that
// calibrates to the same sample step and count, then rotate.
var memoKeyTable = map[string]struct {
	base string
	rows []memoRow
}{
	KindPassive: {`{"kind":"passive","passive":{"seed":1,"sites":["HK"],"constellations":["FOSSA","CSTP"]}}`, append([]memoRow{
		{"seed", `2`, hitGrid, 0},
		{"start", `"2024-09-01T01:00:00Z"`, 0, hitGrid | hitOrbit},
		{"days", `2`, 0, hitGrid | hitOrbit},
		{"sites", `["SYD"]`, hitGrid, 0},
		{"constellations", `["PICO"]`, 0, hitGrid | hitOrbit},
		{"scheduler", `"roundrobin"`, hitGrid, 0},
		{"min_elevation_deg", `20`, hitGrid, 0},
		{"coarse_step", `"2m"`, hitOrbit, hitGrid},
		{"honor_site_start", `true`, hitGrid, 0},
		{"weather", `"rainy"`, hitGrid, 0},
	}, faultRows(func(string) memoKinds { return hitGrid })...)},
	KindActive: {`{"kind":"active","active":{"seed":1,"start":"2024-09-01T00:00:00Z","constellation":"FOSSA"}}`, append([]memoRow{
		{"seed", `2`, hitGrid | hitPlan, 0},
		{"start", `"2024-09-01T01:00:00Z"`, 0, hitGrid | hitPlan | hitOrbit},
		{"days", `2`, 0, hitGrid | hitPlan | hitOrbit},
		{"nodes", `5`, hitGrid | hitPlan, 0},
		{"payload_bytes", `40`, hitGrid | hitPlan, 0},
		{"sense_period", `"20m"`, hitGrid | hitPlan, 0},
		{"max_retx", `3`, hitGrid | hitPlan, 0},
		{"ack_timeout", `"5s"`, hitGrid | hitPlan, 0},
		{"aligned_phases", `true`, hitGrid | hitPlan, 0},
		{"sleep_when_idle", `true`, hitGrid | hitPlan, 0},
		{"schedule_aware_min_elevation_deg", `20`, hitGrid, hitPlan},
		{"tx_gate_margin_db", `3`, hitGrid | hitPlan, 0},
		{"antenna", `"quarter"`, hitGrid | hitPlan, 0},
		{"constellation", `"CSTP"`, 0, hitGrid | hitPlan | hitOrbit},
		{"weather", `"rainy"`, hitGrid | hitPlan, 0},
	}, faultRows(func(pair string) memoKinds {
		if pair == "drain" {
			return hitGrid // drain outages reach the plan
		}
		return hitGrid | hitPlan
	})...)},
	KindCoverage: {`{"kind":"coverage","coverage":{"constellation":"FOSSA","latitudes_deg":[0,30]}}`, []memoRow{
		{"constellation", `"CSTP"`, 0, hitGrid | hitOrbit},
		{"latitudes_deg", `[-45,45,60]`, hitGrid, 0},
		{"start", `"2024-09-01T01:00:00Z"`, 0, hitGrid | hitOrbit},
		{"days", `2`, 0, hitGrid | hitOrbit},
	}},
	KindBackhaul: {`{"kind":"backhaul","backhaul":{"constellation":"FOSSA"}}`, []memoRow{
		{"constellation", `"CSTP"`, 0, hitGrid | hitOrbit},
		{"start", `"2024-09-01T01:00:00Z"`, 0, hitGrid | hitOrbit},
		{"days", `2`, 0, hitGrid | hitOrbit},
		{"step", `"2m"`, hitOrbit, hitGrid},
		{"min_drain_gap", `"100m"`, hitGrid, 0},
	}},
	KindRouting: {`{"kind":"routing","routing":{"seed":1,"constellation":"FOSSA"}}`, append([]memoRow{
		{"seed", `2`, hitGrid | hitTopology | hitPackets, 0},
		{"start", `"2024-09-01T01:00:00Z"`, 0, hitGrid | hitTopology | hitPackets | hitOrbit},
		{"days", `2`, 0, hitGrid | hitTopology | hitPackets | hitOrbit},
		{"constellation", `"CSTP"`, 0, hitGrid | hitTopology | hitPackets | hitOrbit},
		{"snapshot_step", `"2m"`, hitOrbit, hitGrid | hitTopology | hitPackets},
		{"max_isl_range_km", `3000`, hitGrid, hitTopology | hitPackets},
		{"hop_processing", `"50ms"`, hitGrid, hitTopology | hitPackets},
		{"packet_interval", `"1h"`, hitGrid | hitTopology, hitPackets},
		{"policy", `"store"`, hitGrid | hitTopology, hitPackets},
	}, faultRows(func(pair string) memoKinds {
		if pair == "drain" || pair == "link" {
			return hitGrid // drain and link outages reach the topology
		}
		return hitGrid | hitTopology | hitPackets
	})...)},
}

// sectionFields lists a section type's JSON field names, FaultSpec fields
// as "faults.<name>".
func sectionFields(t reflect.Type) []string {
	var names []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.Type == reflect.TypeOf(&FaultSpec{}) {
			for _, sub := range sectionFields(f.Type.Elem()) {
				names = append(names, name+"."+sub)
			}
			continue
		}
		names = append(names, name)
	}
	return names
}

// withField returns the spec body with one section field set.
func withField(t *testing.T, body, kind string, row memoRow) *JobSpec {
	t.Helper()
	var top, fields map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(top[kind], &fields); err != nil {
		t.Fatal(err)
	}
	name, _, _ := strings.Cut(row.field, ".")
	fields[name] = json.RawMessage(row.value)
	section, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	top[kind] = section
	raw, err := json.Marshal(top)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := decodeStrict(raw)
	if err != nil {
		t.Fatalf("%s=%s: %v", row.field, row.value, err)
	}
	return spec
}

// memoCount reads one memo series from a registry.
func memoCount(t *testing.T, reg *obs.Registry, series string) float64 {
	t.Helper()
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("no series %s in:\n%s", series, out.String())
	return 0
}

// runBytes runs a spec and serializes its result.
func runBytes(t *testing.T, spec *JobSpec, rc RunContext) []byte {
	t.Helper()
	res, err := Run(context.Background(), spec, rc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// memoLookups reads every kind's memo hit and miss counts.
func memoLookups(t *testing.T, reg *obs.Registry) (hits, misses []float64) {
	t.Helper()
	for _, kind := range memoKindLabels {
		hits = append(hits, memoCount(t, reg, `sinet_memo_hits_total{kind="`+kind+`"}`))
		misses = append(misses, memoCount(t, reg, `sinet_memo_misses_total{kind="`+kind+`"}`))
	}
	return hits, misses
}

// TestMemoKeyCompleteness changes every field of every section, FaultSpec
// fields included, one at a time against a memo warmed with the kind's
// base spec: the bytes must equal a memo-free run, so no field the memo
// ignores reaches its entries. A field outside a kind's key must also
// hit, so the memo serves the traffic it is for; a field in the key must
// miss; and a run that misses nothing files nothing.
func TestMemoKeyCompleteness(t *testing.T) {
	for _, k := range kinds {
		k := k
		tc, ok := memoKeyTable[k.name]
		if !ok {
			t.Fatalf("kind %s has no memo key table", k.name)
		}
		rows := map[string]memoRow{}
		for _, r := range tc.rows {
			rows[r.field] = r
		}
		fields := sectionFields(reflect.TypeOf(k.section(&JobSpec{}, true)).Elem())
		for _, f := range fields {
			if _, ok := rows[f]; !ok {
				t.Errorf("%s: field %s has no memo key row", k.name, f)
			}
		}
		if len(rows) != len(fields) {
			t.Errorf("%s: %d rows for %d fields", k.name, len(rows), len(fields))
		}
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			reg := obs.New()
			memo := core.NewMemo(64<<20, reg)
			base, err := decodeStrict([]byte(tc.base))
			if err != nil {
				t.Fatal(err)
			}
			if want, got := runBytes(t, base, RunContext{}), runBytes(t, base, RunContext{Memo: memo}); !bytes.Equal(got, want) {
				t.Fatal("base bytes differ through a cold memo")
			}
			for _, row := range tc.rows {
				spec := withField(t, tc.base, k.name, row)
				want := runBytes(t, spec, RunContext{})
				hits, misses := memoLookups(t, reg)
				held := memoCount(t, reg, "sinet_memo_bytes")
				got := runBytes(t, spec, RunContext{Memo: memo})
				if !bytes.Equal(got, want) {
					t.Errorf("%s=%s: bytes through the memo differ from a memo-free run", row.field, row.value)
				}
				hits2, misses2 := memoLookups(t, reg)
				missed := false
				for i, kind := range memoKindLabels {
					bit := memoKinds(1) << i
					if hit := hits2[i] > hits[i]; hit != (row.hit&bit != 0) {
						t.Errorf("%s=%s: %s hit = %v, want %v", row.field, row.value, kind, hit, !hit)
					}
					miss := misses2[i] > misses[i]
					if miss != (row.miss&bit != 0) {
						t.Errorf("%s=%s: %s miss = %v, want %v", row.field, row.value, kind, miss, !miss)
					}
					missed = missed || miss
				}
				if !missed && memoCount(t, reg, "sinet_memo_bytes") != held {
					t.Errorf("%s=%s: a run that missed nothing filed an entry", row.field, row.value)
				}
			}
		})
	}
}

// TestMemoSharedAcrossConcurrentRuns runs active, routing and passive
// campaigns of one geometry, and coverage and backhaul over one
// trajectory at three starts, concurrently against one memo, twice. Two
// coverage runs at two other starts first file the trajectory's samples,
// so every coverage and backhaul run, in either round, misses its grid
// and rotates those shared samples (a rotated grid is not filed). The
// other runs share the memo's entries, so the first round files every
// entry the second reads: in the second round every other run hits its
// grid, every kind hits and nothing else misses. Every result equals its
// memo-free run. Run it under -race -count=10.
func TestMemoSharedAcrossConcurrentRuns(t *testing.T) {
	coverage := func(start, lats string) string {
		return `{"kind":"coverage","coverage":{"constellation":"FOSSA","days":2,"start":"` + start + `","latitudes_deg":` + lats + `}}`
	}
	bodies := []string{
		`{"kind":"active","active":{"seed":1,"start":"2024-09-01T00:00:00Z","constellation":"FOSSA"}}`,
		`{"kind":"active","active":{"seed":2,"start":"2024-09-01T00:00:00Z","constellation":"FOSSA","nodes":2}}`,
		`{"kind":"routing","routing":{"seed":1,"constellation":"FOSSA"}}`,
		`{"kind":"routing","routing":{"seed":3,"constellation":"FOSSA","policy":"relay"}}`,
		`{"kind":"routing","routing":{"seed":4,"constellation":"FOSSA","policy":"store"}}`,
		`{"kind":"passive","passive":{"seed":1,"sites":["HK"],"constellations":["FOSSA"]}}`,
		`{"kind":"passive","passive":{"seed":2,"sites":["HK"],"constellations":["FOSSA"],"weather":"rainy"}}`,
		coverage("2024-09-05T00:00:00Z", `[0,30]`),
		coverage("2024-09-06T06:00:00Z", `[-30]`),
		`{"kind":"backhaul","backhaul":{"constellation":"FOSSA","days":2,"start":"2024-09-07T01:00:00Z"}}`,
	}
	const rotating = 3 // the coverage and backhaul runs, last in bodies
	specs := make([]*JobSpec, len(bodies))
	want := make([][]byte, len(bodies))
	for i, b := range bodies {
		spec, err := decodeStrict([]byte(b))
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = spec
		want[i] = runBytes(t, spec, RunContext{})
	}
	reg := obs.New()
	memo := core.NewMemo(64<<20, reg)
	for _, start := range []string{"2024-09-03T00:00:00Z", "2024-09-04T00:00:00Z"} {
		spec, err := decodeStrict([]byte(coverage(start, `[0]`)))
		if err != nil {
			t.Fatal(err)
		}
		runBytes(t, spec, RunContext{Memo: memo})
	}
	// hits[r], misses[r]: the lookups before round r; r = 2 is the end.
	var hits, misses [3][]float64
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		hits[round], misses[round] = memoLookups(t, reg)
		for i := range specs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := Run(context.Background(), specs[i], RunContext{Memo: memo})
				if err != nil {
					t.Error(err)
					return
				}
				got, err := MarshalResult(res)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("%s: bytes through the shared memo differ from a memo-free run", bodies[i])
				}
			}(i)
		}
		wg.Wait()
	}
	hits[2], misses[2] = memoLookups(t, reg)
	const orbitIdx = 4
	if got := hits[1][orbitIdx] - hits[0][orbitIdx]; got < rotating {
		t.Errorf("%v orbit hits in the first round, want at least the %d coverage and backhaul runs", got, rotating)
	}
	for i, kind := range memoKindLabels {
		h, m := hits[2][i]-hits[1][i], misses[2][i]-misses[1][i]
		switch kind {
		case "grid":
			if h != float64(len(specs)-rotating) || m != rotating {
				t.Errorf("second round: %v grid hits and %v misses of %d runs, want a miss for each of the %d rotating runs and hits for the rest", h, m, len(specs), rotating)
			}
		case "orbit":
			if h != rotating || m != 0 {
				t.Errorf("second round: %v orbit hits and %v misses, want %d hits only", h, m, rotating)
			}
		default:
			if h == 0 || m != 0 {
				t.Errorf("second round: %v %s hits and %v misses, want hits only", h, kind, m)
			}
		}
	}
}

// TestMemoMetrics: a fresh server exports every memo series at zero, and
// a submission repeating a geometry shows as a hit of each entry kind it
// reads. Coverage at two more starts runs the first coverage job's
// trajectory again: the first of them runs SGP4 (an orbit miss) and files
// its samples, the second rotates them (an orbit hit).
func TestMemoMetrics(t *testing.T) {
	reg := obs.New()
	t.Cleanup(func() { orbit.SetMetrics(nil); sim.SetMetrics(nil); netgraph.SetMetrics(nil) })
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 4, Metrics: reg})
	scrape := env.scrape(t)
	fresh := []string{`sinet_memo_evictions_total 0`, `sinet_memo_bytes 0`}
	for _, kind := range memoKindLabels {
		fresh = append(fresh, `sinet_memo_hits_total{kind="`+kind+`"} 0`, `sinet_memo_misses_total{kind="`+kind+`"} 0`)
	}
	for _, series := range fresh {
		if !strings.Contains(scrape, series+"\n") {
			t.Errorf("fresh server's scrape lacks %q:\n%s", series, grepMetric(scrape, "sinet_memo"))
		}
	}
	for _, body := range []string{
		`{"kind":"coverage","coverage":{"constellation":"FOSSA","latitudes_deg":[0]}}`,
		`{"kind":"coverage","coverage":{"constellation":"FOSSA","latitudes_deg":[10,20]}}`,
		`{"kind":"coverage","coverage":{"constellation":"FOSSA","latitudes_deg":[0],"start":"2024-09-02T00:00:00Z"}}`,
		`{"kind":"coverage","coverage":{"constellation":"FOSSA","latitudes_deg":[0],"start":"2024-09-03T00:00:00Z"}}`,
		`{"kind":"routing","routing":{"seed":1,"constellation":"FOSSA"}}`,
		`{"kind":"routing","routing":{"seed":2,"constellation":"FOSSA"}}`,
	} {
		r, code := env.submit(t, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d", code)
		}
		env.awaitState(t, r.ID, StateDone)
	}
	scrape = env.scrape(t)
	for _, series := range []string{
		`sinet_memo_hits_total{kind="grid"} 2`, `sinet_memo_misses_total{kind="grid"} 4`,
		`sinet_memo_hits_total{kind="topology"} 1`, `sinet_memo_misses_total{kind="topology"} 1`,
		`sinet_memo_hits_total{kind="packets"} 1`, `sinet_memo_misses_total{kind="packets"} 1`,
		`sinet_memo_hits_total{kind="orbit"} 1`, `sinet_memo_misses_total{kind="orbit"} 3`,
	} {
		if !strings.Contains(scrape, series+"\n") {
			t.Errorf("scrape after a repeated geometry lacks %q:\n%s", series, grepMetric(scrape, "sinet_memo"))
		}
	}
	if strings.Contains(scrape, "sinet_memo_bytes 0\n") {
		t.Error("memo holds no bytes after filing a grid")
	}
}

// TestFinishedJobDropsItsCheckpoint: the units a job saved serve only its
// next attempt, so the terminal transition releases them.
func TestFinishedJobDropsItsCheckpoint(t *testing.T) {
	saver := func(_ context.Context, _ *JobSpec, rc RunContext) (any, error) {
		rc.Checkpoint("latitudes", 0, 1, []byte(`{"LatitudeDeg":0}`))
		return "ok", nil
	}
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 4, Runner: saver})
	r, code := env.submit(t, coverageSpec(1))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	env.awaitState(t, r.ID, StateDone)
	j, _ := env.svc.Job(r.ID)
	if cp := j.resumePoint(); cp != nil {
		t.Fatalf("finished job keeps a %d-unit resume point", cp.Len())
	}
}

// coldMixJob is the spec body of job i of servebench's cold-mix workload
// at base seed 1: the thirteen campaign shapes in turn, seeded kinds at
// seed 1+i, and coverage and backhaul, which have no seed, starting i
// minutes later.
func coldMixJob(i int) string {
	seed := 1 + i
	at := time.Date(2024, 9, 1, 1, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute).Format(time.RFC3339)
	fig5a := func(days int) string {
		return fmt.Sprintf(`{"kind":"active","active":{"seed":%d,"max_retx":5,"days":%d,"nodes":%d}}`, seed, days, 1+(i/12)%6)
	}
	routing := func(cons, policy string) string {
		return fmt.Sprintf(`{"kind":"routing","routing":{"seed":%d,"constellation":%q,"policy":%q}}`, seed, cons, policy)
	}
	shapes := []string{
		fig5a(1), fig5a(2), fig5a(1), fig5a(3),
		fmt.Sprintf(`{"kind":"active","active":{"seed":%d,"days":1,"nodes":3,"constellation":"PICO"}}`, seed),
		routing("Tianqi", "compare"), routing("Tianqi", "relay"), routing("PICO", "compare"),
		fmt.Sprintf(`{"kind":"passive","passive":{"seed":%d,"sites":["HK","SYD","LDN","PGH"],"constellations":["Tianqi","FOSSA","PICO","CSTP"]}}`, seed),
		fmt.Sprintf(`{"kind":"passive","passive":{"seed":%d,"sites":["HK","SYD"],"constellations":["Tianqi"]}}`, seed),
		fmt.Sprintf(`{"kind":"coverage","coverage":{"latitudes_deg":[-75,-56.25,-37.5,-18.75,0,18.75,37.5,56.25,75],"start":%q}}`, at),
		fmt.Sprintf(`{"kind":"coverage","coverage":{"latitudes_deg":[-75,0,75],"start":%q}}`, at),
		fmt.Sprintf(`{"kind":"backhaul","backhaul":{"constellation":"Tianqi","start":%q}}`, at),
	}
	return shapes[i%len(shapes)]
}

// TestMemoColdMixSecondCycleHits guards the memo's footprint: two cycles
// of the cold-mix shapes run through one memo at the server's budget, and
// in the second every lookup of an active plan, routing packets and a
// routing topology summary hits. An entry the budget cannot keep for a
// cycle misses here. The coverage and backhaul grids never repeat, as
// their start moves per job, but their trajectory does: every one of
// their three grid misses in the second cycle is an orbit hit, and every
// other grid lookup hits.
func TestMemoColdMixSecondCycleHits(t *testing.T) {
	reg := obs.New()
	memo := core.NewMemo(memoBudget, reg)
	cycle := func(c int) {
		for i := 13 * c; i < 13*(c+1); i++ {
			spec, err := decodeStrict([]byte(coldMixJob(i)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(context.Background(), spec, RunContext{Memo: memo}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle(0)
	hits, misses := memoLookups(t, reg)
	cycle(1)
	hits2, misses2 := memoLookups(t, reg)
	for i, kind := range memoKindLabels {
		if kind == "grid" {
			continue // coverage and backhaul grids never repeat
		}
		if hits2[i] == hits[i] || misses2[i] != misses[i] {
			t.Errorf("second cycle: %v %s hits and %v misses, want hits only", hits2[i]-hits[i], kind, misses2[i]-misses[i])
		}
	}
	const gridIdx, orbitIdx = 0, 4
	if rotated, missed := hits2[orbitIdx]-hits[orbitIdx], misses2[gridIdx]-misses[gridIdx]; rotated != 3 || missed != 3 {
		t.Errorf("second cycle: %v grid misses and %v orbit hits, want the 3 coverage and backhaul grids rotated", missed, rotated)
	}
	t.Logf("memo after two cycles: %.0f bytes, %.0f evictions", memoCount(t, reg, "sinet_memo_bytes"), memoCount(t, reg, "sinet_memo_evictions_total"))
}
