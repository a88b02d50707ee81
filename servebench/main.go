// Command servebench is SINet's serving benchmark. It starts in-process
// service.Server and cluster.Coordinator daemons behind loopback net/http
// servers, configured as sinetd's defaults configure them, drives one of
// three workloads at them over HTTP, checks every answer, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	cold-mix       closed loop, one client, distinct campaigns of every kind
//	hot-repeat     open loop (Poisson), every request a cache hit on ~24 keys
//	sharded-fleet  coordinator + 2 workers, half the campaigns split into shards
//
// Usage, from the repository root:
//
//	bash servebench/run.sh --workload cold-mix --seed 1 --seconds 10 --trace 0
//	bash servebench/run.sh repeat --workload hot-repeat --runs 5 --seconds 10
//	bash servebench/run.sh compare OLD.json NEW.json
//
// --trace 0 prints the end-to-end metrics; --trace 1 instead runs an
// untraced and a traced pass of half the time each and prints the
// per-layer metrics, writing the traced pass's spans and a self-time table
// under --outdir. repeat runs N seeds in fresh processes and reports each
// metric's median and quartiles; compare flags only the moves between two
// repeat files that exceed the bound BENCHMARK.json fixes for the metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
)

func main() {
	args := os.Args[1:]
	var err error
	code := 0
	switch {
	case len(args) > 0 && args[0] == "repeat":
		err = repeatMain(args[1:], os.Stdout)
	case len(args) > 0 && args[0] == "compare":
		code, err = compareMain(args[1:], os.Stdout)
	default:
		code, err = runMain(args, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// runMain runs one workload and prints its result as the last line. It
// returns exit code 1 when any output was wrong.
func runMain(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	opt := options{log: stdout}
	fs.StringVar(&opt.workload, "workload", "", "workload: cold-mix, hot-repeat or sharded-fleet")
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed; spec seeds and arrival times derive from it")
	fs.Float64Var(&opt.seconds, "seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.StringVar(&opt.outdir, "outdir", ".bench_build/out", "directory for span files and self-time tables")
	fs.StringVar(&opt.workdir, "workdir", ".bench_build", "directory holding the daemons' journals (a real disk, not tmpfs)")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if !slices.Contains(workloadNames, opt.workload) {
		return 0, fmt.Errorf("-workload must be one of %v, got %q", workloadNames, opt.workload)
	}
	if opt.seconds <= 0 {
		return 0, fmt.Errorf("-seconds must be positive, got %v", opt.seconds)
	}
	if *trace != 0 && *trace != 1 {
		return 0, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	opt.trace = *trace == 1
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		return 0, fmt.Errorf("work dir: %w", err)
	}
	res, err := run(opt)
	if err != nil {
		return 0, err
	}
	for _, name := range sortedKeys(res.Metrics) {
		fmt.Fprintf(stdout, "%-40s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

func logJSON(w io.Writer, label string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "%s %s\n", label, data)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
