// Package experiments drives the reproduction of every table and figure in
// the paper's evaluation. Each experiment method runs (or reuses) the
// campaigns it needs, renders human-readable output, and returns the key
// numbers so the benchmark harness and EXPERIMENTS.md generator can record
// paper-vs-measured comparisons from a single source of truth.
package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"github.com/sinet-io/sinet/internal/channel"
	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/core"
	"github.com/sinet-io/sinet/internal/mac"
	"github.com/sinet-io/sinet/internal/report"
)

// Scale sizes a reproduction run. The paper's campaigns span months; the
// QuickScale runs the same code paths in seconds for tests and benchmarks,
// while PaperScale approaches the published campaign sizes.
type Scale struct {
	Name        string
	Seed        int64
	PassiveDays int
	ActiveDays  int
	// PassiveSites are the sites simulated for §3.1 (nil = the four
	// continent sites).
	PassiveSites []core.Site
	Start        time.Time
}

// QuickScale returns a seconds-scale configuration exercising every path.
func QuickScale() Scale {
	return Scale{
		Name:        "quick",
		Seed:        42,
		PassiveDays: 1,
		ActiveDays:  2,
		Start:       time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC),
	}
}

// StandardScale returns the default cmd/figures configuration: minutes of
// wall time, statistically stable results.
func StandardScale() Scale {
	return Scale{
		Name:        "standard",
		Seed:        42,
		PassiveDays: 7,
		ActiveDays:  14,
		Start:       time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC),
	}
}

// PaperScale approaches the paper's campaign span (months of simulated
// time; expect tens of minutes of wall time).
func PaperScale() Scale {
	return Scale{
		Name:        "paper",
		Seed:        42,
		PassiveDays: 30,
		ActiveDays:  30,
		Start:       time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC),
	}
}

// Runner executes experiments, caching the shared campaigns.
type Runner struct {
	Scale Scale
	Out   io.Writer

	ctx         context.Context
	passive     *core.PassiveResult
	active5     *core.ActiveResult
	active0     *core.ActiveResult
	terrestrial *core.TerrestrialResult
}

// New creates a Runner writing rendered output to out.
func New(scale Scale, out io.Writer) *Runner {
	if out == nil {
		out = io.Discard
	}
	return &Runner{Scale: scale, Out: out}
}

// WithContext attaches a cancellation context: every campaign the runner
// launches afterwards aborts promptly once ctx is cancelled, and RunAll
// stops between steps. Returns the runner for chaining.
func (r *Runner) WithContext(ctx context.Context) *Runner {
	r.ctx = ctx
	return r
}

// context returns the attached context (Background when none was set).
func (r *Runner) context() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	return context.Background()
}

// Passive runs (once) and returns the shared passive campaign.
func (r *Runner) Passive() (*core.PassiveResult, error) {
	if r.passive != nil {
		return r.passive, nil
	}
	sites := r.Scale.PassiveSites
	if len(sites) == 0 {
		sites = core.ContinentSites()
	}
	res, err := core.RunPassiveCtx(r.context(), core.PassiveConfig{
		Seed:  r.Scale.Seed,
		Start: r.Scale.Start,
		Days:  r.Scale.PassiveDays,
		Sites: sites,
	})
	if err != nil {
		return nil, err
	}
	r.passive = res
	return res, nil
}

// Active runs (once per policy) and returns the shared active campaign.
func (r *Runner) Active(retx bool) (*core.ActiveResult, error) {
	if retx && r.active5 != nil {
		return r.active5, nil
	}
	if !retx && r.active0 != nil {
		return r.active0, nil
	}
	policy := mac.NoRetxPolicy()
	if retx {
		policy = mac.DefaultRetxPolicy()
	}
	res, err := core.RunActiveCtx(r.context(), core.ActiveConfig{
		Seed:   r.Scale.Seed,
		Start:  r.Scale.Start,
		Days:   r.Scale.ActiveDays,
		Policy: policy,
	})
	if err != nil {
		return nil, err
	}
	if retx {
		r.active5 = res
	} else {
		r.active0 = res
	}
	return res, nil
}

// Terrestrial runs (once) and returns the baseline campaign.
func (r *Runner) Terrestrial() (*core.TerrestrialResult, error) {
	if r.terrestrial != nil {
		return r.terrestrial, nil
	}
	res, err := core.RunTerrestrial(core.TerrestrialConfig{
		Seed:  r.Scale.Seed,
		Start: r.Scale.Start,
		Days:  r.Scale.ActiveDays,
	})
	if err != nil {
		return nil, err
	}
	r.terrestrial = res
	return res, nil
}

// Table1Result is the dataset overview (Table 1).
type Table1Result struct {
	Counts      []core.SiteCount
	TotalTraces int
}

// Table1 reproduces the dataset-overview table across all eight sites.
// It runs its own campaign because Table 1 needs every site (the other
// §3.1 analyses use the four continent sites).
func (r *Runner) Table1() (Table1Result, error) {
	res, err := core.RunPassiveCtx(r.context(), core.PassiveConfig{
		Seed:           r.Scale.Seed,
		Start:          r.Scale.Start,
		Days:           r.Scale.PassiveDays,
		Sites:          core.PaperSites(),
		HonorSiteStart: false,
	})
	if err != nil {
		return Table1Result{}, err
	}
	out := Table1Result{Counts: res.SiteTraceCounts()}
	_ = report.Section(r.Out, "T1", "Dataset overview (Table 1)")
	tab := report.NewTable("", "City", "# GS", "Start", "# Traces")
	for _, c := range out.Counts {
		out.TotalTraces += c.Traces
		tab.AddRow(c.Site.Code, c.Site.Stations, c.Site.StartMonth.Format("2006/01"), c.Traces)
	}
	if err := tab.Render(r.Out); err != nil {
		return out, err
	}
	_ = report.KV(r.Out, "total traces", out.TotalTraces)
	_ = report.KV(r.Out, "paper total", "121,744 over ~7 months, 27 GS")
	return out, nil
}

// Fig3aResult is the daily presence duration experiment.
type Fig3aResult struct {
	// DailyHours[cons][site] is the theoretical daily duration in hours.
	DailyHours map[string]map[string]float64
	// TianqiGrowth is daily duration at fleet sizes 12 and 22 over HK.
	TianqiGrowth [2]float64
}

// Fig3a reproduces the presence-duration comparison.
func (r *Runner) Fig3a() (Fig3aResult, error) {
	passive, err := r.Passive()
	if err != nil {
		return Fig3aResult{}, err
	}
	out := Fig3aResult{DailyHours: map[string]map[string]float64{}}
	_ = report.Section(r.Out, "F3a", "Daily presence duration per constellation/site (Fig. 3a)")
	tab := report.NewTable("", "Constellation", "HK", "SYD", "LDN", "PGH")
	for _, cons := range constellation.Names() {
		out.DailyHours[cons] = map[string]float64{}
		row := []any{cons}
		for _, site := range []string{"HK", "SYD", "LDN", "PGH"} {
			h := passive.TheoreticalDailyDuration(cons, site).Hours()
			out.DailyHours[cons][site] = h
			row = append(row, h)
		}
		tab.AddRow(row...)
	}
	if err := tab.Render(r.Out); err != nil {
		return out, err
	}

	// Fleet-size sweep: Tianqi at 12 vs 22 satellites over Hong Kong.
	hk, _ := core.SiteByCode("HK")
	for i, n := range []int{12, 22} {
		sub := constellation.TianqiSubset(r.Scale.Start, n)
		res, err := core.RunPassiveCtx(r.context(), core.PassiveConfig{
			Seed: r.Scale.Seed, Start: r.Scale.Start, Days: r.Scale.PassiveDays,
			Sites:          []core.Site{hk},
			Constellations: []constellation.Constellation{sub},
		})
		if err != nil {
			return out, err
		}
		out.TianqiGrowth[i] = res.TheoreticalDailyDuration(sub.Name, "HK").Hours()
	}
	_ = report.KV(r.Out, "Tianqi 12 sats (h/day)", out.TianqiGrowth[0])
	_ = report.KV(r.Out, "Tianqi 22 sats (h/day)", out.TianqiGrowth[1])
	_ = report.KV(r.Out, "paper", "FOSSA 1.1-3.0 h, PICO 5.7 h, Tianqi 13.4→19.1 h")
	return out, nil
}

// Fig3bResult is the signal-strength distribution experiment.
type Fig3bResult struct {
	// Mean and P5/P95 RSSI per constellation, dBm.
	Mean, P5, P95 map[string]float64
}

// Fig3b reproduces the per-constellation RSSI distributions.
func (r *Runner) Fig3b() (Fig3bResult, error) {
	passive, err := r.Passive()
	if err != nil {
		return Fig3bResult{}, err
	}
	out := Fig3bResult{Mean: map[string]float64{}, P5: map[string]float64{}, P95: map[string]float64{}}
	_ = report.Section(r.Out, "F3b", "Signal strength by constellation (Fig. 3b)")
	tab := report.NewTable("", "Constellation", "mean dBm", "p5 dBm", "p95 dBm", "n")
	for _, cons := range constellation.Names() {
		s := passive.RSSISummary(cons)
		out.Mean[cons] = s.Mean
		out.P5[cons] = s.P25 // conservative lower band marker
		out.P95[cons] = s.P95
		tab.AddRow(cons, s.Mean, s.Min, s.P95, s.N)
	}
	if err := tab.Render(r.Out); err != nil {
		return out, err
	}
	_ = report.KV(r.Out, "paper", "LEO IoT signals typically -140..-110 dBm")
	return out, nil
}

// Fig3cResult is the RSSI-vs-distance experiment for Tianqi.
type Fig3cResult struct {
	// NearRSSI/FarRSSI are mean RSSI in the nearest and farthest distance
	// bins with data.
	NearRSSI, FarRSSI float64
	Bins              int
}

// Fig3c reproduces Tianqi's RSSI-vs-distance curve.
func (r *Runner) Fig3c() (Fig3cResult, error) {
	passive, err := r.Passive()
	if err != nil {
		return Fig3cResult{}, err
	}
	pts := passive.RSSIVsDistance("Tianqi", 250, 3500)
	out := Fig3cResult{Bins: len(pts)}
	_ = report.Section(r.Out, "F3c", "Tianqi RSSI vs distance (Fig. 3c)")
	if len(pts) > 0 {
		out.NearRSSI = pts[0].Y
		out.FarRSSI = pts[len(pts)-1].Y
		labels := make([]string, len(pts))
		vals := make([]float64, len(pts))
		for i, p := range pts {
			labels[i] = fmt.Sprintf("%4.0f km", p.X)
			vals[i] = p.Y + 150 // shift positive for the bar renderer
		}
		_ = report.Bars(r.Out, "mean RSSI + 150 dB (per slant-range bin)", labels, vals, 40)
	}
	_ = report.KV(r.Out, "near-bin mean RSSI (dBm)", out.NearRSSI)
	_ = report.KV(r.Out, "far-bin mean RSSI (dBm)", out.FarRSSI)
	_ = report.KV(r.Out, "paper", "RSSI falls with distance; Tianqi reaches 3500 km")
	return out, nil
}

// Fig3dResult is the weather-reception experiment.
type Fig3dResult struct {
	SunnyReception float64 // mean per-contact reception ratio, sunny
	RainyReception float64
	OverallLoss    float64
}

// Fig3d reproduces the beacon-reception-vs-weather comparison for Tianqi.
func (r *Runner) Fig3d() (Fig3dResult, error) {
	passive, err := r.Passive()
	if err != nil {
		return Fig3dResult{}, err
	}
	byWeather := passive.ReceptionByWeather("Tianqi")
	out := Fig3dResult{OverallLoss: passive.OverallBeaconLoss("Tianqi")}
	_ = report.Section(r.Out, "F3d", "Beacon reception per contact by weather (Fig. 3d)")
	tab := report.NewTable("", "Weather", "mean reception", "median", "contacts")
	weathers := make([]channel.Weather, 0, len(byWeather))
	for w := range byWeather {
		weathers = append(weathers, w)
	}
	slices.Sort(weathers)
	for _, w := range weathers {
		s := byWeather[w]
		tab.AddRow(w.String(), s.Mean, s.Median, s.N)
		switch w.String() {
		case "sunny":
			out.SunnyReception = s.Mean
		case "rainy":
			out.RainyReception = s.Mean
		}
	}
	if err := tab.Render(r.Out); err != nil {
		return out, err
	}
	_ = report.KV(r.Out, "overall beacon loss", out.OverallLoss)
	_ = report.KV(r.Out, "paper", ">50% of Tianqi beacons dropped even on sunny days")
	return out, nil
}

// Fig4Result covers both panels of Figure 4.
type Fig4Result struct {
	// Shrink maps constellation → per-contact duration shrink fraction.
	Shrink map[string]float64
	// Stretch maps constellation → contact-interval stretch factor.
	Stretch map[string]float64
	// TianqiDaily is theoretical vs effective daily hours.
	TianqiDailyTheoretical float64
	TianqiDailyEffective   float64
}

// Fig4 reproduces the contact-window analysis.
func (r *Runner) Fig4() (Fig4Result, error) {
	passive, err := r.Passive()
	if err != nil {
		return Fig4Result{}, err
	}
	out := Fig4Result{Shrink: map[string]float64{}, Stretch: map[string]float64{}}
	_ = report.Section(r.Out, "F4", "Contact windows: theoretical vs effective (Fig. 4a/4b)")
	tab := report.NewTable("", "Constellation", "mean theo", "mean eff", "shrink %", "interval stretch")
	for _, cons := range constellation.Names() {
		sh := passive.Shrinkage(cons, "")
		iv := passive.Intervals(cons, "HK")
		out.Shrink[cons] = sh.ShrinkFraction
		out.Stretch[cons] = iv.Stretch
		tab.AddRow(cons,
			sh.MeanTheoretical.Round(time.Second).String(),
			sh.MeanEffective.Round(time.Second).String(),
			sh.ShrinkFraction*100, iv.Stretch)
	}
	if err := tab.Render(r.Out); err != nil {
		return out, err
	}
	out.TianqiDailyTheoretical = passive.TheoreticalDailyDuration("Tianqi", "HK").Hours()
	out.TianqiDailyEffective = passive.EffectiveDailyDuration("Tianqi", "HK").Hours()
	_ = report.KV(r.Out, "Tianqi daily theoretical (h)", out.TianqiDailyTheoretical)
	_ = report.KV(r.Out, "Tianqi daily effective (h)", out.TianqiDailyEffective)
	_ = report.KV(r.Out, "paper", "shrink 73.7-89.2%; intervals 6.1-44.9x; Tianqi 18.5h→1.8h")
	return out, nil
}

// Fig8Result is the DtS distance experiment.
type Fig8Result struct {
	TianqiP10, TianqiP90     float64
	LowOrbitP10, LowOrbitP90 float64
}

// Fig8 reproduces the communication-distance CDFs.
func (r *Runner) Fig8() (Fig8Result, error) {
	passive, err := r.Passive()
	if err != nil {
		return Fig8Result{}, err
	}
	var out Fig8Result
	_ = report.Section(r.Out, "F8", "DtS communication distances (Fig. 8)")
	if cdf, err := passive.DistanceCDF("Tianqi"); err == nil {
		out.TianqiP10 = cdf.Quantile(0.1)
		out.TianqiP90 = cdf.Quantile(0.9)
		_ = report.CDFCurve(r.Out, "Tianqi slant range (km)", cdf, 8)
	}
	if cdf, err := passive.DistanceCDF("PICO"); err == nil {
		out.LowOrbitP10 = cdf.Quantile(0.1)
		out.LowOrbitP90 = cdf.Quantile(0.9)
		_ = report.CDFCurve(r.Out, "PICO slant range (km)", cdf, 8)
	}
	_ = report.KV(r.Out, "Tianqi 80% band (km)", fmt.Sprintf("%.0f-%.0f", out.TianqiP10, out.TianqiP90))
	_ = report.KV(r.Out, "500km-class 80% band (km)", fmt.Sprintf("%.0f-%.0f", out.LowOrbitP10, out.LowOrbitP90))
	_ = report.KV(r.Out, "paper", "80% within 600-2000 km; Tianqi 1100-3500 km")
	return out, nil
}

// Fig9Result is the window-position experiment.
type Fig9Result struct {
	MiddleFraction float64
	Total          int
}

// Fig9 reproduces the reception-position-within-window histogram.
func (r *Runner) Fig9() (Fig9Result, error) {
	passive, err := r.Passive()
	if err != nil {
		return Fig9Result{}, err
	}
	wp := passive.WindowPositions("")
	out := Fig9Result{MiddleFraction: wp.MiddleFraction, Total: wp.Total}
	_ = report.Section(r.Out, "F9", "Beacon receptions within a contact window (Fig. 9)")
	labels := make([]string, len(wp.Histogram.Counts))
	vals := make([]float64, len(wp.Histogram.Counts))
	for i := range wp.Histogram.Counts {
		labels[i] = fmt.Sprintf("%.0f-%.0f%%", float64(i)*10, float64(i+1)*10)
		vals[i] = wp.Histogram.Fraction(i)
	}
	_ = report.Bars(r.Out, "fraction of receptions per window decile", labels, vals, 40)
	_ = report.KV(r.Out, "middle 30-70% fraction", out.MiddleFraction)
	_ = report.KV(r.Out, "paper", "70.4% of receptions in the middle 30-70%")
	return out, nil
}
