package core

import (
	"sort"
	"time"

	"github.com/sinet-io/sinet/internal/channel"
	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/stats"
	"github.com/sinet-io/sinet/internal/trace"
)

// contactsOf selects the contacts of one (constellation, site) pair;
// empty selectors match everything.
func (r *PassiveResult) contactsOf(cons, site string) []ContactStat {
	var out []ContactStat
	for _, c := range r.Contacts {
		if (cons == "" || c.Constellation == cons) && (site == "" || c.Site == site) {
			out = append(out, c)
		}
	}
	return out
}

// TheoreticalDailyDuration returns the mean per-day union duration of the
// constellation's visibility windows over a site — Fig. 3a's presence
// duration.
func (r *PassiveResult) TheoreticalDailyDuration(cons, site string) time.Duration {
	contacts := r.contactsOf(cons, site)
	if len(contacts) == 0 {
		return 0
	}
	windows := make([]orbit.Window, len(contacts))
	for i, c := range contacts {
		windows[i] = c.Pass.Window()
	}
	union := orbit.MergeWindows(windows)
	total := orbit.TotalDuration(union)
	days := r.daysSpanned(contacts)
	if days <= 0 {
		return 0
	}
	return time.Duration(float64(total) / days)
}

// EffectiveDailyDuration returns the mean per-day union duration of the
// effective windows (first..last received beacon per contact) — the
// "effective service time" of §3.1.
func (r *PassiveResult) EffectiveDailyDuration(cons, site string) time.Duration {
	contacts := r.contactsOf(cons, site)
	if len(contacts) == 0 {
		return 0
	}
	var windows []orbit.Window
	for _, c := range contacts {
		if c.EffectiveDuration() <= 0 {
			continue
		}
		windows = append(windows, orbit.Window{Start: c.FirstRx, End: c.LastRx})
	}
	if len(windows) == 0 {
		return 0
	}
	union := orbit.MergeWindows(windows)
	days := r.daysSpanned(contacts)
	if days <= 0 {
		return 0
	}
	return time.Duration(float64(orbit.TotalDuration(union)) / days)
}

// daysSpanned returns the campaign span in days for the given contacts.
func (r *PassiveResult) daysSpanned(contacts []ContactStat) float64 {
	if len(contacts) == 0 {
		return 0
	}
	first, last := contacts[0].Pass.AOS, contacts[0].Pass.LOS
	for _, c := range contacts[1:] {
		if c.Pass.AOS.Before(first) {
			first = c.Pass.AOS
		}
		if c.Pass.LOS.After(last) {
			last = c.Pass.LOS
		}
	}
	days := last.Sub(first).Hours() / 24
	if days < 1 {
		days = 1
	}
	return days
}

// WindowShrinkage compares theoretical and effective contact durations —
// Fig. 4a. Fractions are means over contacts that were covered by a
// station.
type WindowShrinkage struct {
	Constellation   string
	Contacts        int
	MeanTheoretical time.Duration
	MeanEffective   time.Duration
	// ShrinkFraction is 1 − effective/theoretical (the paper's
	// 73.7%-89.2%).
	ShrinkFraction float64
}

// Shrinkage computes Fig. 4a's comparison for one constellation across
// the given site ("" = all sites).
func (r *PassiveResult) Shrinkage(cons, site string) WindowShrinkage {
	contacts := r.contactsOf(cons, site)
	out := WindowShrinkage{Constellation: cons}
	var sumT, sumE time.Duration
	for _, c := range contacts {
		if !c.Covered {
			continue
		}
		out.Contacts++
		sumT += c.TheoreticalDuration()
		sumE += c.EffectiveDuration()
	}
	if out.Contacts == 0 || sumT == 0 {
		return out
	}
	out.MeanTheoretical = sumT / time.Duration(out.Contacts)
	out.MeanEffective = sumE / time.Duration(out.Contacts)
	out.ShrinkFraction = 1 - float64(sumE)/float64(sumT)
	return out
}

// IntervalStretch compares contact intervals: the gaps between theoretical
// windows versus the gaps between effective windows — Fig. 4b.
type IntervalStretch struct {
	Constellation   string
	MeanTheoretical time.Duration
	MeanEffective   time.Duration
	// Stretch is effective/theoretical (the paper's 6.1-44.9×).
	Stretch float64
}

// Intervals computes Fig. 4b for one constellation over one site.
func (r *PassiveResult) Intervals(cons, site string) IntervalStretch {
	contacts := r.contactsOf(cons, site)
	out := IntervalStretch{Constellation: cons}
	var theoretical, effective []orbit.Window
	for _, c := range contacts {
		theoretical = append(theoretical, c.Pass.Window())
		if c.EffectiveDuration() > 0 {
			effective = append(effective, orbit.Window{Start: c.FirstRx, End: c.LastRx})
		}
	}
	tGaps := orbit.Gaps(orbit.MergeWindows(theoretical))
	eGaps := orbit.Gaps(orbit.MergeWindows(effective))
	out.MeanTheoretical = meanDuration(tGaps)
	out.MeanEffective = meanDuration(eGaps)
	if out.MeanTheoretical > 0 {
		out.Stretch = float64(out.MeanEffective) / float64(out.MeanTheoretical)
	}
	return out
}

func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// WindowPositionStats is the Fig. 9 analysis: where within a contact
// window receptions land.
type WindowPositionStats struct {
	Histogram *stats.Histogram // 10 bins over [0,1)
	// MiddleFraction is the fraction of receptions in the middle 30%-70%
	// of the window (the paper reports 70.4%).
	MiddleFraction float64
	Total          int
}

// WindowPositions aggregates reception positions across contacts.
func (r *PassiveResult) WindowPositions(cons string) WindowPositionStats {
	h, _ := stats.NewHistogram(0, 1, 10)
	middle, total := 0, 0
	for _, c := range r.Contacts {
		if cons != "" && c.Constellation != cons {
			continue
		}
		for _, p := range c.RxPositions {
			h.Add(p)
			total++
			if p >= 0.3 && p <= 0.7 {
				middle++
			}
		}
	}
	out := WindowPositionStats{Histogram: h, Total: total}
	if total > 0 {
		out.MiddleFraction = float64(middle) / float64(total)
	}
	return out
}

// ReceptionByWeather groups per-contact beacon reception ratios by sky
// state — Fig. 3d.
func (r *PassiveResult) ReceptionByWeather(cons string) map[channel.Weather]stats.Summary {
	groups := map[channel.Weather][]float64{}
	for _, c := range r.Contacts {
		if cons != "" && c.Constellation != cons {
			continue
		}
		if !c.Covered || c.BeaconsSent == 0 {
			continue
		}
		groups[c.WeatherAtTCA] = append(groups[c.WeatherAtTCA], c.ReceptionRatio())
	}
	out := make(map[channel.Weather]stats.Summary, len(groups))
	for w, ratios := range groups {
		out[w] = stats.Summarize(ratios)
	}
	return out
}

// RSSISummary summarizes received signal strength for a constellation —
// Fig. 3b.
func (r *PassiveResult) RSSISummary(cons string) stats.Summary {
	ds := r.Dataset
	if cons != "" {
		ds = ds.ByConstellation(cons)
	}
	return stats.Summarize(ds.RSSIs())
}

// RSSIVsDistance bins RSSI by slant range — Fig. 3c. Returns bin centres
// (km) and mean RSSI per bin; empty bins are skipped.
func (r *PassiveResult) RSSIVsDistance(cons string, binKm float64, maxKm float64) []stats.Point {
	ds := r.Dataset
	if cons != "" {
		ds = ds.ByConstellation(cons)
	}
	if binKm <= 0 || maxKm <= 0 {
		return nil
	}
	nBins := int(maxKm / binKm)
	sums := make([]float64, nBins)
	counts := make([]int, nBins)
	for _, rec := range ds.Records {
		idx := int(rec.RangeKm / binKm)
		if idx < 0 || idx >= nBins {
			continue
		}
		sums[idx] += rec.RSSIDBm
		counts[idx]++
	}
	var out []stats.Point
	for i := range sums {
		if counts[i] == 0 {
			continue
		}
		out = append(out, stats.Point{
			X: (float64(i) + 0.5) * binKm,
			Y: sums[i] / float64(counts[i]),
		})
	}
	return out
}

// DistanceCDF returns the CDF of DtS communication distances — Fig. 8.
func (r *PassiveResult) DistanceCDF(cons string) (*stats.CDF, error) {
	ds := r.Dataset
	if cons != "" {
		ds = ds.ByConstellation(cons)
	}
	return stats.NewCDF(ds.Ranges())
}

// DopplerStats summarizes the Doppler shifts observed on received beacons
// — Appendix C's loss cause (2). For a 500 km orbit at 400-450 MHz the
// worst-case shift is ≈ ±10 kHz, well inside LoRa's static tolerance,
// which is why Doppler is a contributor rather than the dominant killer.
type DopplerStats struct {
	Summary  stats.Summary // of |shift| in Hz
	MaxAbsHz float64
	// ToleranceHz is the SF10/125 kHz static Doppler tolerance for
	// comparison.
	ToleranceHz float64
}

// Doppler aggregates |Doppler| over the received beacons of one
// constellation ("" = all).
func (r *PassiveResult) Doppler(cons string) DopplerStats {
	ds := r.Dataset
	if cons != "" {
		ds = ds.ByConstellation(cons)
	}
	abs := ds.Values(func(rec trace.Record) float64 {
		if rec.DopplerHz < 0 {
			return -rec.DopplerHz
		}
		return rec.DopplerHz
	})
	out := DopplerStats{
		Summary:     stats.Summarize(abs),
		MaxAbsHz:    stats.Max(abs),
		ToleranceHz: 0.25 * 125e3,
	}
	return out
}

// OverallBeaconLoss returns the fraction of beacons lost during covered
// contacts of the constellation (Fig. 3d's ">50% dropped" headline).
func (r *PassiveResult) OverallBeaconLoss(cons string) float64 {
	sent, rx := 0, 0
	for _, c := range r.Contacts {
		if cons != "" && c.Constellation != cons {
			continue
		}
		sent += c.BeaconsSent
		rx += c.BeaconsReceived
	}
	if sent == 0 {
		return 0
	}
	return 1 - float64(rx)/float64(sent)
}

// SiteTraceCounts returns Table 1's trace counts in stable site order.
func (r *PassiveResult) SiteTraceCounts() []SiteCount {
	counts := r.Dataset.CountBySite()
	var out []SiteCount
	for _, s := range r.Config.Sites {
		out = append(out, SiteCount{Site: s, Traces: counts[s.Code]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site.Code < out[j].Site.Code })
	return out
}

// SiteCount pairs a site with its trace count.
type SiteCount struct {
	Site   Site
	Traces int
}
