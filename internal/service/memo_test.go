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

	"github.com/sinet-io/sinet/internal/core"
	"github.com/sinet-io/sinet/internal/netgraph"
	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/sim"
)

// memoRow changes one field of a kind's base spec.
type memoRow struct {
	// field is the section field's JSON name, "faults.<name>" for a
	// FaultSpec field.
	field string
	// value is the JSON the field is set to; a FaultSpec field's row sets
	// the whole faults object, since an MTBF and its MTTR go together.
	value string
	// grid and plan require the warmed memo to answer the changed spec's
	// grid and plan lookups: the field lies outside those keys.
	grid, plan bool
}

// faultRows covers every FaultSpec field. No fault reaches a grid; plan
// reports whether a fault pair leaves the active plan key alone.
func faultRows(plan func(pair string) bool) []memoRow {
	var rows []memoRow
	for _, pair := range []string{"station", "drain", "sat", "link"} {
		rows = append(rows,
			memoRow{"faults." + pair + "_mtbf", fmt.Sprintf(`{"%s_mtbf":"12h","%s_mttr":"1h"}`, pair, pair), true, plan(pair)},
			memoRow{"faults." + pair + "_mttr", fmt.Sprintf(`{"%s_mtbf":"12h","%s_mttr":"2h"}`, pair, pair), true, plan(pair)})
	}
	return append(rows, memoRow{"faults.maintenance",
		`{"maintenance":[{"start":"2024-09-01T02:00:00Z","end":"2024-09-01T05:00:00Z"}]}`, true, plan("maintenance")})
}

// memoKeyTable holds, per kind, a small base spec and one row per field
// of its section.
var memoKeyTable = map[string]struct {
	base string
	rows []memoRow
}{
	KindPassive: {`{"kind":"passive","passive":{"seed":1,"sites":["HK"],"constellations":["FOSSA","CSTP"]}}`, append([]memoRow{
		{"seed", `2`, true, false},
		{"start", `"2024-09-01T01:00:00Z"`, false, false},
		{"days", `2`, false, false},
		{"sites", `["SYD"]`, true, false},
		{"constellations", `["PICO"]`, false, false},
		{"scheduler", `"roundrobin"`, true, false},
		{"min_elevation_deg", `20`, true, false},
		{"coarse_step", `"2m"`, false, false},
		{"honor_site_start", `true`, true, false},
		{"weather", `"rainy"`, true, false},
	}, faultRows(func(string) bool { return false })...)},
	KindActive: {`{"kind":"active","active":{"seed":1,"start":"2024-09-01T00:00:00Z","constellation":"FOSSA"}}`, append([]memoRow{
		{"seed", `2`, true, true},
		{"start", `"2024-09-01T01:00:00Z"`, false, false},
		{"days", `2`, false, false},
		{"nodes", `5`, true, true},
		{"payload_bytes", `40`, true, true},
		{"sense_period", `"20m"`, true, true},
		{"max_retx", `3`, true, true},
		{"ack_timeout", `"5s"`, true, true},
		{"aligned_phases", `true`, true, true},
		{"sleep_when_idle", `true`, true, true},
		{"schedule_aware_min_elevation_deg", `20`, true, false},
		{"tx_gate_margin_db", `3`, true, true},
		{"antenna", `"quarter"`, true, true},
		{"constellation", `"CSTP"`, false, false},
		{"weather", `"rainy"`, true, true},
	}, faultRows(func(pair string) bool { return pair != "drain" })...)},
	KindCoverage: {`{"kind":"coverage","coverage":{"constellation":"FOSSA","latitudes_deg":[0,30]}}`, []memoRow{
		{"constellation", `"CSTP"`, false, false},
		{"latitudes_deg", `[-45,45,60]`, true, false},
		{"start", `"2024-09-01T01:00:00Z"`, false, false},
		{"days", `2`, false, false},
	}},
	KindBackhaul: {`{"kind":"backhaul","backhaul":{"constellation":"FOSSA"}}`, []memoRow{
		{"constellation", `"CSTP"`, false, false},
		{"start", `"2024-09-01T01:00:00Z"`, false, false},
		{"days", `2`, false, false},
		{"step", `"2m"`, false, false},
		{"min_drain_gap", `"100m"`, true, false},
	}},
	KindRouting: {`{"kind":"routing","routing":{"seed":1,"constellation":"FOSSA"}}`, append([]memoRow{
		{"seed", `2`, true, false},
		{"start", `"2024-09-01T01:00:00Z"`, false, false},
		{"days", `2`, false, false},
		{"constellation", `"CSTP"`, false, false},
		{"snapshot_step", `"2m"`, false, false},
		{"max_isl_range_km", `3000`, true, false},
		{"hop_processing", `"50ms"`, true, false},
		{"packet_interval", `"1h"`, true, false},
		{"policy", `"store"`, true, false},
	}, faultRows(func(string) bool { return false })...)},
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

// TestMemoKeyCompleteness changes every field of every section, FaultSpec
// fields included, one at a time against a memo warmed with the kind's
// base spec: the bytes must equal a memo-free run, so no field the memo
// ignores reaches its entries. A field outside the keys must also hit,
// so the memo serves the traffic it is for.
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
				gridHits := memoCount(t, reg, `sinet_memo_hits_total{kind="grid"}`)
				planHits := memoCount(t, reg, `sinet_memo_hits_total{kind="plan"}`)
				got := runBytes(t, spec, RunContext{Memo: memo})
				if !bytes.Equal(got, want) {
					t.Errorf("%s=%s: bytes through the memo differ from a memo-free run", row.field, row.value)
				}
				if row.grid && memoCount(t, reg, `sinet_memo_hits_total{kind="grid"}`) == gridHits {
					t.Errorf("%s=%s: no grid hit, though the field is outside the grid key", row.field, row.value)
				}
				if row.plan && memoCount(t, reg, `sinet_memo_hits_total{kind="plan"}`) == planHits {
					t.Errorf("%s=%s: no plan hit, though the field is outside the plan key", row.field, row.value)
				}
			}
		})
	}
}

// TestMemoSharedAcrossConcurrentRuns runs active and routing campaigns of
// one geometry concurrently against one memo: they share its grid, and
// every result equals its memo-free run. Run it under -race -count=10.
func TestMemoSharedAcrossConcurrentRuns(t *testing.T) {
	bodies := []string{
		`{"kind":"active","active":{"seed":1,"start":"2024-09-01T00:00:00Z","constellation":"FOSSA"}}`,
		`{"kind":"active","active":{"seed":2,"start":"2024-09-01T00:00:00Z","constellation":"FOSSA","nodes":2}}`,
		`{"kind":"routing","routing":{"seed":1,"constellation":"FOSSA"}}`,
		`{"kind":"routing","routing":{"seed":3,"constellation":"FOSSA","policy":"relay"}}`,
	}
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
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
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
	if hits := memoCount(t, reg, `sinet_memo_hits_total{kind="grid"}`); hits < 4 {
		t.Fatalf("%v grid hits over 8 runs of one geometry, want at least 4", hits)
	}
}

// TestMemoMetrics: a fresh server exports every memo series at zero, and
// a submission repeating a geometry shows as a grid hit.
func TestMemoMetrics(t *testing.T) {
	reg := obs.New()
	t.Cleanup(func() { orbit.SetMetrics(nil); sim.SetMetrics(nil); netgraph.SetMetrics(nil) })
	env := newTestEnv(t, Config{Workers: 1, QueueDepth: 4, Metrics: reg})
	scrape := env.scrape(t)
	for _, series := range []string{
		`sinet_memo_hits_total{kind="grid"} 0`, `sinet_memo_hits_total{kind="plan"} 0`,
		`sinet_memo_misses_total{kind="grid"} 0`, `sinet_memo_misses_total{kind="plan"} 0`,
		`sinet_memo_evictions_total 0`, `sinet_memo_bytes 0`,
	} {
		if !strings.Contains(scrape, series+"\n") {
			t.Errorf("fresh server's scrape lacks %q:\n%s", series, grepMetric(scrape, "sinet_memo"))
		}
	}
	for _, lats := range []string{"[0]", "[10,20]"} {
		r, code := env.submit(t, `{"kind":"coverage","coverage":{"constellation":"FOSSA","latitudes_deg":`+lats+`}}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d", code)
		}
		env.awaitState(t, r.ID, StateDone)
	}
	scrape = env.scrape(t)
	for _, series := range []string{`sinet_memo_hits_total{kind="grid"} 1`, `sinet_memo_misses_total{kind="grid"} 1`} {
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
