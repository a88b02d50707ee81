package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/sinet-io/sinet/internal/stats"
)

// summary is one metric over repeated runs.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/|median|
	Values []float64 `json:"values"`
}

// repeatFile is what repeat writes and compare reads.
type repeatFile struct {
	Workload string             `json:"workload"`
	Trace    int                `json:"trace"`
	Seconds  float64            `json:"seconds"`
	Seeds    []int64            `json:"seeds"`
	Correct  bool               `json:"correct"`
	Env      json.RawMessage    `json:"env,omitempty"`
	Metrics  map[string]summary `json:"metrics"`
}

func summarize(unit string, values []float64) summary {
	q := stats.Quantiles(values, 0.25, 0.5, 0.75)
	s := summary{Unit: unit, Q1: q[0], Median: q[1], Q3: q[2], Values: values}
	if s.Median != 0 {
		s.Spread = (s.Q3 - s.Q1) / math.Abs(s.Median)
	}
	return s
}

// repeatMain runs one workload over consecutive seeds, each in a fresh
// process, and reports every metric's median and quartiles.
func repeatMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("servebench repeat", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 5, "number of runs, one seed each")
	seed := fs.Int64("seed", 1, "first seed; run i uses seed+i")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "0 end-to-end metrics, 1 per-layer metrics")
	outdir := fs.String("outdir", ".bench_build/out", "directory for run outputs")
	out := fs.String("out", "", "summary file (default <outdir>/repeat-<workload>-trace<T>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 1 {
		return fmt.Errorf("-runs must be at least 1, got %d", *runs)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rf := repeatFile{Workload: *workload, Trace: *trace, Seconds: *seconds, Correct: true, Metrics: map[string]summary{}}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < *runs; i++ {
		s := *seed + int64(i)
		cmd := exec.Command(self, "--workload", *workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", strconv.Itoa(*trace), "--outdir", *outdir)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		var last, envLine string
		sc := bufio.NewScanner(&buf)
		sc.Buffer(make([]byte, 1<<16), 1<<22)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "env ") {
				envLine = strings.TrimPrefix(line, "env ")
			} else if line != "" {
				last = line
			}
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return errors.Join(fmt.Errorf("seed %d: no result line: %w", s, err), runErr)
		}
		if runErr != nil || !res.Correct {
			rf.Correct = false
		}
		if rf.Env == nil && envLine != "" {
			rf.Env = json.RawMessage(envLine)
		}
		rf.Seeds = append(rf.Seeds, s)
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(stdout, "run %d/%d seed %d: correct=%v attempted=%d failed=%d\n", i+1, *runs, s, res.Correct, res.Attempted, res.Failed)
	}
	fmt.Fprintf(stdout, "%-40s %12s %12s %12s %8s %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, name := range sortedKeys(values) {
		s := summarize(units[name], values[name])
		rf.Metrics[name] = s
		fmt.Fprintf(stdout, "%-40s %12.4f %12.4f %12.4f %7.1f%% %s\n", name, s.Q1, s.Median, s.Q3, 100*s.Spread, s.Unit)
	}
	path := *out
	if path == "" {
		path = filepath.Join(*outdir, fmt.Sprintf("repeat-%s-trace%d.json", *workload, *trace))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	if !rf.Correct {
		return errors.New("at least one run reported wrong outputs")
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchSpec
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func loadRepeat(path string) (*repeatFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf repeatFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareMain compares two repeat files metric by metric. A metric is
// flagged only when its median moved by more than the bound BENCHMARK.json
// fixes for it; when either side's own spread exceeds the bound the move
// is reported as unresolved instead. Per-layer metrics have no bound and
// are listed without a verdict. Exit code 1 means a regression.
func compareMain(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("servebench compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if fs.NArg() != 2 {
		return 0, errors.New("usage: compare [-bench BENCHMARK.json] OLD.json NEW.json")
	}
	spec, err := loadBenchSpec(*benchPath)
	if err != nil {
		return 0, err
	}
	old, err := loadRepeat(fs.Arg(0))
	if err != nil {
		return 0, err
	}
	cur, err := loadRepeat(fs.Arg(1))
	if err != nil {
		return 0, err
	}
	if old.Workload != cur.Workload || old.Trace != cur.Trace || old.Seconds != cur.Seconds {
		fmt.Fprintf(stdout, "warning: comparing %s/trace%d/%gs with %s/trace%d/%gs\n",
			old.Workload, old.Trace, old.Seconds, cur.Workload, cur.Trace, cur.Seconds)
	}
	type rule struct {
		better string
		bound  float64 // 0: no bound
	}
	rules := map[string]rule{}
	for _, m := range spec.EndToEnd {
		rules[m.Name] = rule{m.Better, m.Bound}
	}
	for _, m := range spec.PerLayer {
		rules[m.Name] = rule{better: m.Better}
	}
	code := 0
	fmt.Fprintf(stdout, "%-40s %12s %12s %8s  %s\n", "metric", "old", "new", "change", "verdict")
	for _, name := range sortedKeys(cur.Metrics) {
		o, ok := old.Metrics[name]
		if !ok {
			continue
		}
		n := cur.Metrics[name]
		r := rules[name]
		change := 0.0
		if o.Median != 0 {
			change = (n.Median - o.Median) / math.Abs(o.Median)
		}
		worse := (r.better == "lower" && change > 0) || (r.better == "higher" && change < 0)
		verdict := "no bound"
		switch {
		case r.bound == 0:
		case math.Max(o.Spread, n.Spread) > r.bound:
			verdict = fmt.Sprintf("unresolved: spread %.1f%% exceeds the %.0f%% bound", 100*math.Max(o.Spread, n.Spread), 100*r.bound)
		case math.Abs(change) <= r.bound:
			verdict = "within bound"
		case worse:
			verdict = fmt.Sprintf("REGRESSION beyond the %.0f%% bound", 100*r.bound)
			code = 1
		default:
			verdict = fmt.Sprintf("improved beyond the %.0f%% bound", 100*r.bound)
		}
		fmt.Fprintf(stdout, "%-40s %12.4f %12.4f %+7.1f%%  %s\n", name, o.Median, n.Median, 100*change, verdict)
	}
	return code, nil
}
