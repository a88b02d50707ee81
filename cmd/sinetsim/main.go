// Command sinetsim runs a full passive measurement campaign (the paper's
// §2.2/§3.1 deployment: up to 27 ground stations at 8 sites listening to
// four constellations) and writes the packet-trace dataset plus a summary.
//
// Usage:
//
//	sinetsim [-days 7] [-seed 42] [-sites HK,SYD] [-constellations Tianqi,PICO]
//	         [-scheduler tracking|roundrobin] [-csv traces.csv] [-json traces.json]
//	         [-station-mtbf 72h -station-mttr 6h] [-telemetry]
//
// With -telemetry the run collects engine metrics (SGP4 calls, ephemeris
// cache hits, sim tasks, per-phase timings) and appends a Prometheus-format
// snapshot to the summary. Telemetry never changes the simulated results.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	sinet "github.com/sinet-io/sinet"
	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/groundstation"
	"github.com/sinet-io/sinet/internal/netgraph"
	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/report"
	"github.com/sinet-io/sinet/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		slog.New(slog.NewTextHandler(os.Stderr, nil)).Error("sinetsim exiting", "error", err)
		os.Exit(1)
	}
}

// run parses the arguments, executes the campaign and renders the summary
// to stdout. It is the single exit path: every failure returns an error
// instead of exiting mid-flight.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sinetsim", flag.ContinueOnError)
	days := fs.Int("days", 7, "campaign length, days")
	seed := fs.Int64("seed", 42, "master random seed")
	sitesArg := fs.String("sites", "", "comma-separated site codes (default: all 8)")
	consArg := fs.String("constellations", "", "comma-separated constellation names (default: all 4)")
	schedArg := fs.String("scheduler", "tracking", "station scheduler: tracking (customized) or roundrobin (vanilla TinyGS)")
	csvPath := fs.String("csv", "", "write the trace dataset as CSV")
	jsonPath := fs.String("json", "", "write the trace dataset as JSON")
	honorStart := fs.Bool("honor-start", false, "delay sites to their Table 1 start months")
	stationMTBF := fs.Duration("station-mtbf", 0, "inject station churn: mean up-time between failures (requires -station-mttr)")
	stationMTTR := fs.Duration("station-mttr", 0, "inject station churn: mean down-time per failure (requires -station-mtbf)")
	telemetry := fs.Bool("telemetry", false, "collect campaign telemetry and print a Prometheus-format snapshot after the run")
	exact := fs.Bool("exact", false, "disable ephemeris interpolation: propagate every query exactly (slower, reproduces pre-interpolation output byte for byte)")
	isl := fs.Bool("isl", false, "run a routing campaign over the time-varying ISL network graph instead of the passive campaign")
	islRangeKm := fs.Float64("isl-range-km", 0, "ISL terminal range budget in km (default 5000; requires -isl)")
	routingPolicy := fs.String("routing-policy", "compare", "routing delivery policy: store, relay, or compare (requires -isl)")
	linkMTBF := fs.Duration("link-mtbf", 0, "inject ISL link churn: mean up-time between failures (requires -isl and -link-mttr)")
	linkMTTR := fs.Duration("link-mttr", 0, "inject ISL link churn: mean down-time per failure (requires -isl and -link-mtbf)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Distinguish "left at default" from "explicitly set": zero means
	// "default"/"off" for these flags only when the user never typed them,
	// so an explicit `-isl-range-km 0` is a config mistake to reject, not
	// silently reinterpret.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *days <= 0 {
		return fmt.Errorf("-days must be positive, got %d", *days)
	}
	if set["isl-range-km"] && (math.IsNaN(*islRangeKm) || *islRangeKm <= 0) {
		return fmt.Errorf("-isl-range-km must be positive when set, got %v", *islRangeKm)
	}
	if set["link-mtbf"] && *linkMTBF <= 0 {
		return fmt.Errorf("-link-mtbf must be positive when set, got %v", *linkMTBF)
	}
	if set["link-mttr"] && *linkMTTR <= 0 {
		return fmt.Errorf("-link-mttr must be positive when set, got %v", *linkMTTR)
	}
	if (*stationMTBF > 0) != (*stationMTTR > 0) {
		return fmt.Errorf("-station-mtbf and -station-mttr must be set together")
	}
	if *stationMTBF < 0 || *stationMTTR < 0 {
		return fmt.Errorf("-station-mtbf/-station-mttr must be non-negative")
	}
	if !*isl && (*islRangeKm != 0 || *routingPolicy != "compare" || *linkMTBF != 0 || *linkMTTR != 0) {
		return fmt.Errorf("-isl-range-km, -routing-policy and -link-mtbf/-link-mttr require -isl")
	}
	if (*linkMTBF > 0) != (*linkMTTR > 0) {
		return fmt.Errorf("-link-mtbf and -link-mttr must be set together")
	}
	if *linkMTBF < 0 || *linkMTTR < 0 {
		return fmt.Errorf("-link-mtbf/-link-mttr must be non-negative")
	}
	if *isl {
		return runRouting(stdout, *days, *seed, *consArg, *islRangeKm, *routingPolicy, *linkMTBF, *linkMTTR, *telemetry, *exact)
	}

	start := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	cfg := sinet.PassiveConfig{
		Seed:           *seed,
		Start:          start,
		Days:           *days,
		HonorSiteStart: *honorStart,
		ExactEphemeris: *exact,
	}
	if *stationMTBF > 0 {
		cfg.Faults = &sinet.FaultConfig{StationMTBF: *stationMTBF, StationMTTR: *stationMTTR}
	}

	if *sitesArg == "" {
		cfg.Sites = sinet.PaperSites()
	} else {
		for _, code := range strings.Split(*sitesArg, ",") {
			s, ok := sinet.SiteByCode(strings.ToUpper(strings.TrimSpace(code)))
			if !ok {
				return fmt.Errorf("unknown site %q", code)
			}
			cfg.Sites = append(cfg.Sites, s)
		}
	}

	if *consArg == "" {
		cfg.Constellations = sinet.AllConstellations(start)
	} else {
		for _, name := range strings.Split(*consArg, ",") {
			name = strings.TrimSpace(name)
			c, ok := constellation.ByName(name, start)
			if !ok {
				return fmt.Errorf("unknown constellation %q", name)
			}
			cfg.Constellations = append(cfg.Constellations, c)
		}
	}

	switch *schedArg {
	case "tracking":
		// Default (the paper's customized scheduler).
	case "roundrobin":
		var catalog []int
		for _, c := range cfg.Constellations {
			for _, s := range c.Sats {
				catalog = append(catalog, s.NoradID)
			}
		}
		cfg.Scheduler = groundstation.RoundRobinScheduler{Catalog: catalog, Slot: 10 * time.Minute}
	default:
		return fmt.Errorf("unknown scheduler %q", *schedArg)
	}

	var reg *obs.Registry
	if *telemetry {
		reg = obs.New()
		orbit.SetMetrics(reg)
		sim.SetMetrics(reg)
		defer orbit.SetMetrics(nil)
		defer sim.SetMetrics(nil)
	}

	slog.New(slog.NewTextHandler(os.Stderr, nil)).Info("sinetsim starting",
		"version", obs.Version(),
		"gomaxprocs", runtime.GOMAXPROCS(0),
		"days", *days,
		"seed", *seed,
		"sites", len(cfg.Sites),
		"constellations", len(cfg.Constellations),
		"scheduler", *schedArg,
		"telemetry", *telemetry)

	fmt.Fprintf(stdout, "running %d-day campaign: %d sites, %d constellations, scheduler=%s\n",
		*days, len(cfg.Sites), len(cfg.Constellations), *schedArg)
	t0 := time.Now()
	res, err := sinet.RunPassive(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "completed in %v: %d trace records, %d contact windows\n\n",
		time.Since(t0).Round(time.Millisecond), res.Dataset.Len(), len(res.Contacts))

	fmt.Fprintf(stdout, "%-6s %10s\n", "SITE", "TRACES")
	for _, sc := range res.SiteTraceCounts() {
		fmt.Fprintf(stdout, "%-6s %10d\n", sc.Site.Code, sc.Traces)
	}
	fmt.Fprintln(stdout)
	counts := res.Dataset.CountByConstellation()
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "%-8s %8d traces", name, counts[name])
		sh := res.Shrinkage(name, "")
		if sh.Contacts > 0 {
			fmt.Fprintf(stdout, "  window shrink %.1f%% over %d contacts", sh.ShrinkFraction*100, sh.Contacts)
		}
		fmt.Fprintln(stdout)
	}

	if len(res.Availability) > 0 {
		rows := make([]report.ChurnRow, len(res.Availability))
		for i, a := range res.Availability {
			rows[i] = report.ChurnRow{Station: a.Station, Site: a.Site, Uptime: a.Uptime, Outages: a.Outages, Downtime: a.Downtime}
		}
		if err := report.ChurnSummary(stdout, rows); err != nil {
			return err
		}
	}

	if *csvPath != "" {
		if err := writeDataset(*csvPath, func(f *os.File) error { return res.Dataset.WriteCSV(f) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote CSV dataset to %s\n", *csvPath)
	}
	if *jsonPath != "" {
		if err := writeDataset(*jsonPath, func(f *os.File) error { return res.Dataset.WriteJSON(f) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote JSON dataset to %s\n", *jsonPath)
	}

	if reg != nil {
		fmt.Fprintf(stdout, "\n# telemetry snapshot (Prometheus text format)\n")
		if err := reg.WritePrometheus(stdout); err != nil {
			return err
		}
	}
	return nil
}

// runRouting executes the -isl routing campaign: store-and-forward vs
// ISL relay over the time-varying network graph, summarized as latency
// CDFs per policy.
func runRouting(stdout io.Writer, days int, seed int64, consArg string, islRangeKm float64, policy string, linkMTBF, linkMTTR time.Duration, telemetry, exact bool) error {
	start := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	cfg := sinet.RoutingConfig{
		Seed:           seed,
		Start:          start,
		Days:           days,
		MaxISLRangeKm:  islRangeKm,
		Policy:         policy,
		ExactEphemeris: exact,
	}
	if consArg != "" {
		names := strings.Split(consArg, ",")
		if len(names) != 1 {
			return fmt.Errorf("-isl routes one constellation at a time, got %d", len(names))
		}
		name := strings.TrimSpace(names[0])
		cons, found := constellation.ByName(name, start)
		if found {
			cfg.Constellation = &cons
		}
		// "MegaN" (e.g. Mega256) synthesizes a Starlink-class Walker shell
		// for beyond-the-paper scale sweeps.
		if !found {
			if rest, ok := strings.CutPrefix(strings.ToLower(name), "mega"); ok {
				n, err := strconv.Atoi(rest)
				if err != nil || n <= 0 {
					return fmt.Errorf("bad mega constellation size %q (want e.g. Mega256)", name)
				}
				cons := sinet.Mega(start, n)
				cfg.Constellation = &cons
				found = true
			}
		}
		if !found {
			return fmt.Errorf("unknown constellation %q", name)
		}
	}
	if linkMTBF > 0 {
		cfg.Faults = &sinet.FaultConfig{LinkMTBF: linkMTBF, LinkMTTR: linkMTTR}
	}

	var reg *obs.Registry
	if telemetry {
		reg = obs.New()
		orbit.SetMetrics(reg)
		sim.SetMetrics(reg)
		netgraph.SetMetrics(reg)
		defer orbit.SetMetrics(nil)
		defer sim.SetMetrics(nil)
		defer netgraph.SetMetrics(nil)
	}

	consName := "Tianqi"
	if cfg.Constellation != nil {
		consName = cfg.Constellation.Name
	}
	fmt.Fprintf(stdout, "running %d-day routing campaign: %s, policy=%s\n", days, consName, policy)
	t0 := time.Now()
	res, err := sinet.RunRouting(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "completed in %v: %d packets over %d snapshots, %d candidate ISLs (mean %.1f live)\n\n",
		time.Since(t0).Round(time.Millisecond), len(res.Packets), res.Snapshots, res.CandidateISLs, res.MeanLiveISLs)

	if res.Store.Generated > 0 {
		fmt.Fprintf(stdout, "store-and-forward: %d/%d delivered\n", res.Store.Delivered, res.Store.Generated)
		if err := report.LatencyCDF(stdout, "store-and-forward latency", res.StoreLatenciesSec(), 16); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if res.Relay.Generated > 0 {
		fmt.Fprintf(stdout, "ISL relay: %d/%d delivered, mean %.1f hops (max %d)\n",
			res.Relay.Delivered, res.Relay.Generated, res.Relay.MeanHops, res.Relay.MaxHops)
		if err := report.LatencyCDF(stdout, "relay latency", res.RelayLatenciesSec(), 16); err != nil {
			return err
		}
	}

	if reg != nil {
		fmt.Fprintf(stdout, "\n# telemetry snapshot (Prometheus text format)\n")
		if err := reg.WritePrometheus(stdout); err != nil {
			return err
		}
	}
	return nil
}

// writeDataset creates the file and runs the encoder, reporting any error
// so partial datasets are never mistaken for complete ones.
func writeDataset(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
