// Package groundstation models the paper's TinyGS-style receive-only
// ground stations (§2.2): a LILYGO/SX1262 station at a geodetic site, and
// the two scheduling policies that decide which satellite a station listens
// to — the vanilla TinyGS internal scheduler (time-slotted rotation over
// the compatible catalog, blind to visibility) and the paper's customized
// scheduler, which tracks satellite positions and tunes stations to a
// target satellite for the full duration of its pass.
package groundstation

import (
	"fmt"
	"sort"
	"time"

	"github.com/sinet-io/sinet/internal/orbit"
)

// Station is one deployed ground station.
type Station struct {
	ID       string
	Site     string // site code, e.g. "HK"
	Location orbit.Geodetic
	// MinElevationRad is the station's effective horizon mask (terrain,
	// rooftop clutter).
	MinElevationRad float64
}

// String implements fmt.Stringer.
func (s Station) String() string {
	return fmt.Sprintf("%s@%s", s.ID, s.Site)
}

// Assignment tunes one station to one satellite for a time window.
type Assignment struct {
	StationID string
	NoradID   int
	Start     time.Time
	End       time.Time
	// Pass is the underlying predicted pass (customized scheduler only).
	Pass *orbit.Pass
}

// Duration returns the assignment window length.
func (a Assignment) Duration() time.Duration { return a.End.Sub(a.Start) }

// Covers reports whether the assignment has the station tuned to the given
// satellite at time t.
func (a Assignment) Covers(noradID int, t time.Time) bool {
	return a.NoradID == noradID && !t.Before(a.Start) && t.Before(a.End)
}

// Scheduler plans which station listens to which satellite.
type Scheduler interface {
	// Name identifies the policy in reports and ablations.
	Name() string
	// Plan produces assignments for the stations given the predicted
	// passes of all candidate satellites between start and end.
	Plan(stations []Station, passes []orbit.Pass, start, end time.Time) []Assignment
}

// TrackingScheduler is the paper's customized scheduler: it knows every
// upcoming pass and greedily assigns each pass to a free station so the
// station is tuned to that satellite's frequency and beacon parameters for
// the entire window. Passes that exceed station capacity are dropped
// (reported by Plan simply not covering them).
type TrackingScheduler struct{}

// Name implements Scheduler.
func (TrackingScheduler) Name() string { return "customized-tracking" }

// Plan implements Scheduler with greedy interval scheduling: passes sorted
// by AOS, each assigned to the first station free for the whole window.
func (TrackingScheduler) Plan(stations []Station, passes []orbit.Pass, start, end time.Time) []Assignment {
	if len(stations) == 0 || len(passes) == 0 {
		return nil
	}
	sorted := make([]orbit.Pass, len(passes))
	copy(sorted, passes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].AOS.Before(sorted[j].AOS) })

	busyUntil := make([]time.Time, len(stations))
	out := make([]Assignment, 0, len(sorted))
	for i := range sorted {
		p := &sorted[i]
		if p.LOS.Before(start) || p.AOS.After(end) {
			continue
		}
		for si := range stations {
			if !busyUntil[si].After(p.AOS) {
				busyUntil[si] = p.LOS
				out = append(out, Assignment{
					StationID: stations[si].ID,
					NoradID:   p.NoradID,
					Start:     maxTime(p.AOS, start),
					End:       minTime(p.LOS, end),
					Pass:      p,
				})
				break
			}
		}
	}
	return out
}

// RoundRobinScheduler approximates vanilla TinyGS behaviour: each station
// rotates through the compatible satellite catalog on a fixed time slot,
// regardless of whether the chosen satellite is visible. Stations are
// de-phased from each other so a site's fleet spreads across the catalog.
type RoundRobinScheduler struct {
	// Catalog is the NORAD IDs the station firmware knows about.
	Catalog []int
	// Slot is the dwell time per satellite (TinyGS reassigns on the order
	// of several minutes).
	Slot time.Duration
}

// Name implements Scheduler.
func (RoundRobinScheduler) Name() string { return "vanilla-roundrobin" }

// Plan implements Scheduler.
func (s RoundRobinScheduler) Plan(stations []Station, passes []orbit.Pass, start, end time.Time) []Assignment {
	if len(stations) == 0 || len(s.Catalog) == 0 || !end.After(start) {
		return nil
	}
	slot := s.Slot
	if slot <= 0 {
		slot = 10 * time.Minute
	}
	var out []Assignment
	for si, st := range stations {
		for t, idx := start, si; t.Before(end); t, idx = t.Add(slot), idx+1 {
			slotEnd := minTime(t.Add(slot), end)
			out = append(out, Assignment{
				StationID: st.ID,
				NoradID:   s.Catalog[idx%len(s.Catalog)],
				Start:     t,
				End:       slotEnd,
			})
		}
	}
	return out
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
