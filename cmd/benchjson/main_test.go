package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: github.com/sinet-io/sinet
cpu: AMD EPYC 7B13
BenchmarkPassPredictionSerial-8   	       2	 512345678 ns/op	 1234567 B/op	    8901 allocs/op
BenchmarkPassPredictionParallel-8 	       4	 256789012 ns/op	 1234500 B/op	    8899 allocs/op
PASS
ok  	github.com/sinet-io/sinet	3.456s
pkg: github.com/sinet-io/sinet/internal/obs
BenchmarkCounterInc-8             	100000000	        10.52 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	github.com/sinet-io/sinet/internal/obs	1.234s
`

func TestRunParsesBenchOutput(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" {
		t.Errorf("context = %s/%s, want linux/amd64", rep.GOOS, rep.GOARCH)
	}
	if rep.GoVersion == "" {
		t.Error("missing go_version")
	}
	if len(rep.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(rep.Results))
	}
	first := rep.Results[0]
	if first.Name != "BenchmarkPassPredictionSerial-8" {
		t.Errorf("name = %q", first.Name)
	}
	if first.Package != "github.com/sinet-io/sinet" {
		t.Errorf("package = %q", first.Package)
	}
	if first.Iterations != 2 || first.NsPerOp != 512345678 {
		t.Errorf("iterations/ns = %d/%v", first.Iterations, first.NsPerOp)
	}
	if first.BytesPerOp != 1234567 || first.AllocsPerOp != 8901 {
		t.Errorf("mem stats = %d B/op, %d allocs/op", first.BytesPerOp, first.AllocsPerOp)
	}
	last := rep.Results[2]
	if last.Package != "github.com/sinet-io/sinet/internal/obs" {
		t.Errorf("package tracking across pkg: lines broke: %q", last.Package)
	}
	if last.NsPerOp != 10.52 {
		t.Errorf("fractional ns/op = %v, want 10.52", last.NsPerOp)
	}
}

func TestRunIgnoresNoise(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader("PASS\nok  \tsome/pkg\t0.1s\nrandom noise\n"), &out); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 {
		t.Errorf("results = %d, want 0", len(rep.Results))
	}
	// An empty run still emits a results array, not null.
	if !strings.Contains(out.String(), `"results": []`) {
		t.Errorf("empty results should render as []:\n%s", out.String())
	}
}

func TestParseLineRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkOnlyName-8",
		"BenchmarkNoNumbers-8 abc def ns/op",
		"BenchmarkNoUnit-8 100 42",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parseLine accepted %q", line)
		}
	}
}

// sampleBenchCount3 is `go test -count 3` output: each benchmark's line
// repeats three times, and BenchmarkGrid has a namesake in another
// package that must not fold into it.
const sampleBenchCount3 = `goos: linux
goarch: amd64
pkg: github.com/sinet-io/sinet
cpu: AMD EPYC 7B13
BenchmarkGrid-2   	       1	 300 ns/op	 1000 B/op	    10 allocs/op
BenchmarkGrid-2   	       1	 100 ns/op	 1000 B/op	    10 allocs/op
BenchmarkOnce-2   	       5	 7 ns/op	 0 B/op	    0 allocs/op
BenchmarkGrid-2   	       2	 120 ns/op	 1016 B/op	    11 allocs/op
PASS
ok  	github.com/sinet-io/sinet	3.456s
pkg: github.com/sinet-io/sinet/internal/orbit
BenchmarkGrid-2   	      10	 50 ns/op	 0 B/op	    0 allocs/op
BenchmarkGrid-2   	      10	 52 ns/op	 0 B/op	    0 allocs/op
BenchmarkGrid-2   	      10	 60 ns/op	 0 B/op	    0 allocs/op
PASS
ok  	github.com/sinet-io/sinet/internal/orbit	1.234s
`

func TestRunFoldsRepeatedRuns(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(sampleBenchCount3), &out); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	want := []Result{
		// Sorted ns: 100, 120, 300; quartiles 110 and 210.
		{Name: "BenchmarkGrid-2", Package: "github.com/sinet-io/sinet", N: 3, Iterations: 4,
			NsPerOp: 120, NsPerOpIQR: 100, BytesPerOp: 1000, AllocsPerOp: 10},
		{Name: "BenchmarkOnce-2", Package: "github.com/sinet-io/sinet", N: 1, Iterations: 5,
			NsPerOp: 7, NsPerOpIQR: 0, BytesPerOp: 0, AllocsPerOp: 0},
		// Sorted ns: 50, 52, 60; quartiles 51 and 56.
		{Name: "BenchmarkGrid-2", Package: "github.com/sinet-io/sinet/internal/orbit", N: 3, Iterations: 30,
			NsPerOp: 52, NsPerOpIQR: 5, BytesPerOp: 0, AllocsPerOp: 0},
	}
	if len(rep.Results) != len(want) {
		t.Fatalf("results = %d, want %d:\n%s", len(rep.Results), len(want), out.String())
	}
	for i, w := range want {
		if rep.Results[i] != w {
			t.Errorf("result %d = %+v, want %+v", i, rep.Results[i], w)
		}
	}
	if !strings.Contains(out.String(), `"n": 1,`) || !strings.Contains(out.String(), `"ns_per_op_iqr": 100,`) {
		t.Errorf("JSON lacks the n / ns_per_op_iqr fields:\n%s", out.String())
	}
}

func TestCompareFlagsOnlyMovesBeyondBothIQRs(t *testing.T) {
	row := func(name string, n int, ns, iqr float64, allocs int64) Result {
		return Result{Name: name, Package: "p", N: n, NsPerOp: ns, NsPerOpIQR: iqr, AllocsPerOp: allocs}
	}
	old := Report{Results: []Result{
		row("BenchmarkFaster-2", 5, 1000, 50, 7),
		row("BenchmarkNoise-2", 5, 1000, 300, 7),
		row("BenchmarkSlower-2", 5, 1000, 10, 7),
		row("BenchmarkOnce-2", 1, 1000, 0, 7),
		row("BenchmarkGone-2", 5, 1000, 10, 7),
	}}
	cur := Report{Results: []Result{
		row("BenchmarkFaster-2", 5, 800, 40, 3),
		row("BenchmarkNoise-2", 5, 800, 20, 7),
		row("BenchmarkSlower-2", 5, 1100, 10, 7),
		row("BenchmarkOnce-2", 5, 500, 10, 7),
		row("BenchmarkNew-2", 5, 1000, 10, 7),
	}}
	var out strings.Builder
	compare(old, cur, &out)
	want := map[string]string{
		"BenchmarkFaster-2": "FASTER beyond both IQRs",
		"BenchmarkNoise-2":  "within IQR", // 200 ns moved inside the old side's 300 ns IQR
		"BenchmarkSlower-2": "SLOWER beyond both IQRs",
		"BenchmarkOnce-2":   "unresolved: n = 1/5",
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1+len(want) {
		t.Fatalf("compare printed %d lines, want a header and %d rows:\n%s", len(lines), len(want), out.String())
	}
	for _, line := range lines[1:] {
		name := strings.Fields(line)[0]
		verdict, ok := want[name]
		if !ok {
			t.Errorf("row for %s, which is not in both reports", name)
			continue
		}
		if !strings.HasSuffix(line, verdict) {
			t.Errorf("%s: row %q, want verdict %q", name, line, verdict)
		}
	}
	if !strings.Contains(out.String(), "-20.0%") {
		t.Errorf("Faster row lacks its -20.0%% change:\n%s", out.String())
	}
}
