// Command benchjson converts `go test -bench -benchmem` output into a
// machine-readable JSON document for tracking benchmark results over time
// (see the Makefile `bench` target, which writes BENCH_<date>.json).
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson > BENCH_2026-08-05.json
//
// The output is a single JSON object with context (goos, goarch, cpu, Go
// version) and one entry per benchmark: name, package, iterations, ns/op,
// and — when -benchmem was used — B/op and allocs/op.
//
// Output of `go test -count N` repeats each benchmark's line N times. The
// lines of one benchmark (same package and name) fold into one entry: n is
// the number of lines, ns_per_op their median and ns_per_op_iqr the
// distance between their quartiles, iterations the total over the lines,
// and B/op and allocs/op the medians. A benchmark run once gets n = 1 and
// an interquartile range of 0.
//
// With -compare it reads two such documents instead and prints, for every
// benchmark found in both, the old and new median ns/op and allocs/op:
//
//	benchjson -compare BENCH_old.json BENCH_new.json
//
// A row is flagged faster or slower only when its median ns/op moved by
// more than the interquartile range of either side; a benchmark with n = 1
// on either side has no spread to judge by and is listed as unresolved.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"github.com/sinet-io/sinet/internal/stats"
)

// Result is one benchmark: a parsed result line, or the fold of its
// repeated lines under -count.
type Result struct {
	Name        string  `json:"name"`
	Package     string  `json:"package,omitempty"`
	N           int     `json:"n"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerOpIQR  float64 `json:"ns_per_op_iqr"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report is the full JSON document: run context plus all results.
type Report struct {
	GOOS      string   `json:"goos,omitempty"`
	GOARCH    string   `json:"goarch,omitempty"`
	CPU       string   `json:"cpu,omitempty"`
	GoVersion string   `json:"go_version,omitempty"`
	Results   []Result `json:"results"`
}

func main() {
	compareMode := flag.Bool("compare", false, "compare two BENCH files: benchjson -compare OLD.json NEW.json")
	flag.Parse()
	var err error
	switch {
	case !*compareMode:
		err = run(os.Stdin, os.Stdout)
	case flag.NArg() != 2:
		err = errors.New("usage: benchjson -compare OLD.json NEW.json")
	default:
		err = compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// compareFiles reads two BENCH reports and writes their comparison.
func compareFiles(oldPath, newPath string, w io.Writer) error {
	var reps [2]Report
	for i, path := range []string{oldPath, newPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &reps[i]); err != nil {
			return fmt.Errorf("decode %s: %w", path, err)
		}
	}
	compare(reps[0], reps[1], w)
	return nil
}

// compare writes one row per benchmark present in both reports, in the
// new report's order: median ns/op and allocs/op on each side, the
// relative change of ns/op and a verdict. The verdict flags a move only
// when it exceeds both sides' interquartile range.
func compare(old, cur Report, w io.Writer) {
	before := map[[2]string]Result{}
	for _, r := range old.Results {
		before[[2]string{r.Package, r.Name}] = r
	}
	fmt.Fprintf(w, "%-44s %14s %14s %8s %12s %12s  %s\n", "benchmark", "old ns/op", "new ns/op", "change", "old allocs", "new allocs", "verdict")
	for _, n := range cur.Results {
		o, ok := before[[2]string{n.Package, n.Name}]
		if !ok {
			continue
		}
		change := 0.0
		if o.NsPerOp != 0 {
			change = (n.NsPerOp - o.NsPerOp) / o.NsPerOp
		}
		move := math.Abs(n.NsPerOp - o.NsPerOp)
		// Files written before the fold carry no n: one sample each.
		on, nn := max(o.N, 1), max(n.N, 1)
		verdict := "within IQR"
		switch {
		case on < 2 || nn < 2:
			verdict = fmt.Sprintf("unresolved: n = %d/%d", on, nn)
		case move <= o.NsPerOpIQR || move <= n.NsPerOpIQR:
		case n.NsPerOp < o.NsPerOp:
			verdict = "FASTER beyond both IQRs"
		default:
			verdict = "SLOWER beyond both IQRs"
		}
		fmt.Fprintf(w, "%-44s %14.0f %14.0f %+7.1f%% %12d %12d  %s\n", n.Name, o.NsPerOp, n.NsPerOp, 100*change, o.AllocsPerOp, n.AllocsPerOp, verdict)
	}
}

// run parses benchmark output from r and writes the JSON report to w.
// Non-benchmark lines (test PASS/ok lines, progress output) are ignored,
// so the whole `go test -bench` stream can be piped through unfiltered.
// Results are listed in the order each benchmark first appears.
func run(r io.Reader, w io.Writer) error {
	rep := Report{Results: []Result{}}
	var runs [][]Result // runs[i] holds every line of rep.Results[i]
	index := map[[2]string]int{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if res, ok := parseLine(line); ok {
				res.Package = pkg
				key := [2]string{pkg, res.Name}
				i, seen := index[key]
				if !seen {
					i = len(runs)
					index[key] = i
					runs = append(runs, nil)
				}
				runs[i] = append(runs[i], res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for _, lines := range runs {
		rep.Results = append(rep.Results, fold(lines))
	}
	rep.GoVersion = runtime.Version()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// parseLine parses one benchmark result line, e.g.
//
//	BenchmarkFoo-8   	 1000000	      1234 ns/op	     456 B/op	       7 allocs/op
//
// Fields after iterations come in "<value> <unit>" pairs; unknown units
// are skipped so custom b.ReportMetric output does not break parsing.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: fields[0], Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				res.NsPerOp = v
				seen = true
			}
		case "B/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				res.BytesPerOp = v
			}
		case "allocs/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				res.AllocsPerOp = v
			}
		}
	}
	return res, seen
}

// fold merges the result lines of one benchmark into one Result.
func fold(lines []Result) Result {
	res := Result{Name: lines[0].Name, Package: lines[0].Package, N: len(lines)}
	ns := make([]float64, len(lines))
	bytesPerOp := make([]float64, len(lines))
	allocsPerOp := make([]float64, len(lines))
	for i, l := range lines {
		res.Iterations += l.Iterations
		ns[i] = l.NsPerOp
		bytesPerOp[i] = float64(l.BytesPerOp)
		allocsPerOp[i] = float64(l.AllocsPerOp)
	}
	q := stats.Quantiles(ns, 0.25, 0.5, 0.75)
	res.NsPerOp = q[1]
	res.NsPerOpIQR = q[2] - q[0]
	res.BytesPerOp = int64(math.Round(stats.Median(bytesPerOp)))
	res.AllocsPerOp = int64(math.Round(stats.Median(allocsPerOp)))
	return res
}
