// Command passpredict predicts satellite contact windows over a ground
// site, either from a TLE file or for one of the built-in constellations.
//
// Usage:
//
//	passpredict -lat 22.3 -lon 114.2 [-alt 0] [-hours 24] [-minel 0]
//	            [-tle FILE | -constellation Tianqi|FOSSA|PICO|CSTP]
//	            [-start RFC3339] [-telemetry]
//
// With -telemetry the prediction collects engine metrics (SGP4 calls,
// ephemeris cache activity) and appends a Prometheus-format snapshot to
// the output. Telemetry never changes the predicted passes.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	sinet "github.com/sinet-io/sinet"
	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/orbit"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		slog.New(slog.NewTextHandler(os.Stderr, nil)).Error("passpredict exiting", "error", err)
		os.Exit(1)
	}
}

// run parses arguments, predicts and prints the passes. It is the single
// exit path: every failure returns an error instead of exiting mid-flight,
// which keeps the whole flow testable.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("passpredict", flag.ContinueOnError)
	lat := fs.Float64("lat", 22.3193, "site latitude, degrees")
	lon := fs.Float64("lon", 114.1694, "site longitude, degrees")
	alt := fs.Float64("alt", 0, "site altitude, km")
	hours := fs.Float64("hours", 24, "search horizon, hours")
	minEl := fs.Float64("minel", 0, "minimum elevation mask, degrees")
	tlePath := fs.String("tle", "", "TLE file (2- or 3-line sets, repeated)")
	consName := fs.String("constellation", "Tianqi", "built-in constellation when no TLE file is given")
	startStr := fs.String("start", "", "search start (RFC3339, default: constellation epoch)")
	telemetry := fs.Bool("telemetry", false, "collect engine telemetry and print a Prometheus-format snapshot after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *lat < -90 || *lat > 90 {
		return fmt.Errorf("-lat must be in [-90, 90], got %v", *lat)
	}
	if *lon < -180 || *lon > 180 {
		return fmt.Errorf("-lon must be in [-180, 180], got %v", *lon)
	}
	if *hours <= 0 {
		return fmt.Errorf("-hours must be positive, got %v", *hours)
	}
	if *minEl < 0 || *minEl >= 90 {
		return fmt.Errorf("-minel must be in [0, 90), got %v", *minEl)
	}

	start := time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)
	if *startStr != "" {
		t, err := time.Parse(time.RFC3339, *startStr)
		if err != nil {
			return fmt.Errorf("bad -start: %w", err)
		}
		start = t.UTC()
	}
	site := sinet.LatLon(*lat, *lon, *alt)
	end := start.Add(time.Duration(*hours * float64(time.Hour)))
	mask := *minEl * 3.14159265358979 / 180

	var reg *obs.Registry
	if *telemetry {
		reg = obs.New()
		orbit.SetMetrics(reg)
		defer orbit.SetMetrics(nil)
	}

	props, err := loadPropagators(*tlePath, *consName, start)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "site lat=%.4f lon=%.4f alt=%.1fkm  window %s .. %s  mask %.1f°\n\n",
		*lat, *lon, *alt, start.Format(time.RFC3339), end.Format(time.RFC3339), *minEl)

	var all []sinet.Pass
	for _, p := range props {
		pp := sinet.NewPassPredictor(p)
		all = append(all, pp.Passes(site, start, end, mask)...)
	}
	sortPasses(all)
	if len(all) == 0 {
		fmt.Fprintln(stdout, "no passes found")
		return writeSnapshot(stdout, reg)
	}
	fmt.Fprintf(stdout, "%-14s %-20s %-20s %-9s %-7s %-9s\n", "SAT", "AOS (UTC)", "LOS (UTC)", "DUR", "MAXEL", "MINRANGE")
	for _, p := range all {
		fmt.Fprintf(stdout, "%-14s %-20s %-20s %-9s %5.1f°  %7.0fkm\n",
			p.Name,
			p.AOS.Format("2006-01-02 15:04:05"),
			p.LOS.Format("2006-01-02 15:04:05"),
			p.Duration().Round(time.Second),
			p.MaxElevationDeg(), p.MinRangeKm)
	}
	fmt.Fprintf(stdout, "\n%d passes\n", len(all))
	return writeSnapshot(stdout, reg)
}

// writeSnapshot appends the end-of-run telemetry snapshot when -telemetry
// installed a registry; with no registry it is a no-op.
func writeSnapshot(stdout io.Writer, reg *obs.Registry) error {
	if reg == nil {
		return nil
	}
	fmt.Fprintf(stdout, "\n# telemetry snapshot (Prometheus text format)\n")
	return reg.WritePrometheus(stdout)
}

// loadPropagators builds propagators from a TLE file or a built-in fleet.
func loadPropagators(tlePath, consName string, epoch time.Time) ([]*sinet.Propagator, error) {
	if tlePath != "" {
		data, err := os.ReadFile(tlePath)
		if err != nil {
			return nil, err
		}
		return parseTLEFile(string(data))
	}
	cons, ok := constellation.ByName(consName, epoch)
	if !ok {
		return nil, fmt.Errorf("unknown constellation %q", consName)
	}
	props := make([]*sinet.Propagator, 0, cons.Size())
	for _, e := range cons.Sats {
		p, err := sinet.NewPropagator(e)
		if err != nil {
			return nil, err
		}
		props = append(props, p)
	}
	return props, nil
}

// parseTLEFile splits concatenated TLE sets (with optional name lines).
func parseTLEFile(text string) ([]*sinet.Propagator, error) {
	var props []*sinet.Propagator
	lines := strings.Split(text, "\n")
	var block []string
	flush := func() error {
		if len(block) == 0 {
			return nil
		}
		tle, err := sinet.ParseTLE(strings.Join(block, "\n"))
		block = nil
		if err != nil {
			return err
		}
		p, err := sinet.NewPropagatorFromTLE(tle)
		if err != nil {
			return err
		}
		props = append(props, p)
		return nil
	}
	for _, ln := range lines {
		trimmed := strings.TrimSpace(ln)
		if trimmed == "" {
			continue
		}
		block = append(block, ln)
		if strings.HasPrefix(trimmed, "2 ") {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(props) == 0 {
		return nil, fmt.Errorf("no TLE sets found")
	}
	return props, nil
}

// sortPasses orders passes chronologically.
func sortPasses(ps []sinet.Pass) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].AOS.Before(ps[j-1].AOS); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}
