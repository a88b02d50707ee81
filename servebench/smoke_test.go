package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/tracing"
)

// TestSmokeEveryMetric runs each workload of BENCHMARK.json at a tiny
// scale, untraced and traced, and requires every metric the file names to
// be emitted with its unit, every output to be correct, and the traced run
// to write its span file and self-time table.
func TestSmokeEveryMetric(t *testing.T) {
	spec, err := loadBenchSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, traced), func(t *testing.T) {
				var log bytes.Buffer
				opt := options{workload: w.Name, seed: 7, seconds: 2, trace: traced, tiny: true,
					outdir: t.TempDir(), workdir: t.TempDir(), log: &log}
				res, err := run(opt)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d (error_ratio must be 0)\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				want := e2e
				if traced {
					want = layer
					if v := res.Metrics["bench.error_ratio"].Value; v != 0 {
						t.Errorf("bench.error_ratio = %v, want 0", v)
					}
					stem := filepath.Join(opt.outdir, fmt.Sprintf("%s-seed%d", w.Name, opt.seed))
					for _, ext := range []string{".spans.json", ".selftime.txt"} {
						if fi, err := os.Stat(stem + ext); err != nil || fi.Size() == 0 {
							t.Errorf("traced run wrote no %s: %v", ext, err)
						}
					}
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", name)
					case got.Unit != unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s emitted but not named in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

// TestSelfTimeSubtractsCoveredIntervals pins self time as the span's
// duration minus the union of its children's (overlapping, clipped)
// intervals.
func TestSelfTimeSubtractsCoveredIntervals(t *testing.T) {
	t0 := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(id, parent string, from, to int) tracing.SpanJSON {
		return tracing.SpanJSON{SpanID: id, ParentID: parent, Name: id,
			Start: t0.Add(time.Duration(from) * time.Millisecond).Format(time.RFC3339Nano), DurationMS: float64(to - from)}
	}
	tl := newTimeline(&outcome{}, []tracing.SpanJSON{
		at("root", "", 0, 100),
		at("a", "root", 10, 30),
		at("b", "root", 20, 40),  // overlaps a: together they cover 10-40
		at("c", "root", 90, 120), // clipped to 90-100
		at("d", "a", 10, 30),     // grandchildren never count against root
	})
	if got, want := tl.self(tl.byID["root"]), 60*time.Millisecond; got != want {
		t.Errorf("self(root) = %v, want %v", got, want)
	}
	if got := tl.self(tl.byID["a"]); got != 0 {
		t.Errorf("self(a) = %v, want 0", got)
	}
}

// TestCutSlicesLeavesOutStolenTime pins which slices the timing metrics
// keep: those where the hypervisor took at most one 10 ms tick, or the
// cleanest half when fewer than half are.
func TestCutSlicesLeavesOutStolenTime(t *testing.T) {
	t0 := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	cut := func(steal ...float64) *hostSlices {
		samples := []stealSample{{t0, 0}}
		for i, s := range steal {
			samples = append(samples, stealSample{t0.Add(time.Duration(i+1) * time.Second), samples[i].steal + s})
		}
		return cutSlices(samples, 2)
	}
	s := cut(0, 0.02, 0, 0.01)
	if want := []bool{true, false, true, true}; !slices.Equal(s.kept, want) {
		t.Errorf("kept = %v, want %v", s.kept, want)
	}
	if got := s.keptTime(t0, t0.Add(4*time.Second)); got != 3*time.Second {
		t.Errorf("keptTime = %v, want 3s", got)
	}
	if s.keeps(t0.Add(500*time.Millisecond), t0.Add(1500*time.Millisecond)) {
		t.Error("a request reaching into a left-out slice is kept")
	}
	if !s.keeps(t0.Add(2100*time.Millisecond), t0.Add(3900*time.Millisecond)) {
		t.Error("a request inside kept slices is left out")
	}
	s = cut(0.3, 0.1, 0.4, 0.2)
	if want := []bool{false, true, false, true}; !slices.Equal(s.kept, want) {
		t.Errorf("kept = %v, want the cleanest half %v", s.kept, want)
	}
}

func TestParsePromSumsSeriesAndSkipsBuckets(t *testing.T) {
	got := parseProm(`# HELP x_total help
# TYPE x_total counter
x_total{mode="full"} 3
x_total{mode="incremental"} 4
h_seconds_bucket{le="1"} 9
h_seconds_sum 2.5
h_seconds_count 9
`)
	if got["x_total"] != 7 || got["h_seconds_sum"] != 2.5 || got["h_seconds_count"] != 9 || got["h_seconds_bucket"] != 0 {
		t.Errorf("parseProm = %v", got)
	}
}
