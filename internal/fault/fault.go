// Package fault injects deterministic infrastructure disruption into the
// measurement campaigns. The paper's numbers were collected on hardware
// that fails constantly — crowd-sourced TinyGS-style stations churn on and
// off, the operator's drain stations have maintenance downtime, and
// satellites go silent between duty cycles — so the simulator models each
// component's outages as a two-state Gilbert (up/down) alternating-renewal
// process driven by a named sim.RNG stream. The same campaign seed and
// fault config therefore always reproduce the same outage schedule, and
// adding a new faulty component never perturbs existing schedules.
//
// Schedules are exposed as queryable, merged outage windows (reusing the
// orbit window machinery), which the campaigns consult: the passive
// campaign clips station tuning plans against them, the active campaign
// mutes blacked-out satellite beacons, and the backhaul skips downed drain
// stations.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/sim"
)

// ErrBadConfig is the sentinel wrapped by every Config validation error.
var ErrBadConfig = errors.New("fault: invalid fault config")

// Config parameterizes the campaign-wide fault model. The zero value
// injects nothing; each MTBF/MTTR pair must be set (or left zero) together.
type Config struct {
	// StationMTBF/StationMTTR drive the Gilbert churn process of every
	// receive ground station: mean time between failures (up spans) and
	// mean time to repair (down spans). Models TinyGS crowd churn, where
	// volunteer stations disappear for hours at a time.
	StationMTBF time.Duration
	StationMTTR time.Duration

	// Maintenance windows are scheduled downtime applied to every receive
	// station on top of the stochastic churn.
	Maintenance []orbit.Window

	// DrainMTBF/DrainMTTR churn the operator's downlink drain stations
	// (the Tianqi ground segment), stretching store-and-forward delivery
	// tails when a satellite overflies a downed teleport.
	DrainMTBF time.Duration
	DrainMTTR time.Duration

	// SatMTBF/SatMTTR black out individual satellites' beacons — duty
	// cycling, eclipse power saving, payload resets. While blacked out a
	// satellite transmits nothing, so nodes can neither hear its gating
	// beacons nor uplink through it.
	SatMTBF time.Duration
	SatMTTR time.Duration

	// LinkMTBF/LinkMTTR churn individual inter-satellite links — pointing
	// loss, terminal resets, thermal safing. A churned-out link drops out
	// of the time-varying network graph; relay routing then detours or
	// degrades to store-and-forward.
	LinkMTBF time.Duration
	LinkMTTR time.Duration
}

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return (c.StationMTBF > 0 && c.StationMTTR > 0) ||
		(c.DrainMTBF > 0 && c.DrainMTTR > 0) ||
		(c.SatMTBF > 0 && c.SatMTTR > 0) ||
		(c.LinkMTBF > 0 && c.LinkMTTR > 0) ||
		len(c.Maintenance) > 0
}

// Validate checks the config, wrapping ErrBadConfig so callers can
// errors.Is against the sentinel.
func (c Config) Validate() error {
	pairs := []struct {
		name       string
		mtbf, mttr time.Duration
	}{
		{"station", c.StationMTBF, c.StationMTTR},
		{"drain", c.DrainMTBF, c.DrainMTTR},
		{"sat", c.SatMTBF, c.SatMTTR},
		{"link", c.LinkMTBF, c.LinkMTTR},
	}
	for _, p := range pairs {
		if p.mtbf < 0 || p.mttr < 0 {
			return fmt.Errorf("%w: %s MTBF/MTTR must be non-negative (%v/%v)", ErrBadConfig, p.name, p.mtbf, p.mttr)
		}
		if (p.mtbf > 0) != (p.mttr > 0) {
			return fmt.Errorf("%w: %s MTBF and MTTR must be set together (%v/%v)", ErrBadConfig, p.name, p.mtbf, p.mttr)
		}
	}
	for i, w := range c.Maintenance {
		if !w.End.After(w.Start) {
			return fmt.Errorf("%w: maintenance window %d is empty or inverted (%v..%v)", ErrBadConfig, i, w.Start, w.End)
		}
	}
	return nil
}

// Schedule is one component's outage timeline over a campaign span:
// merged, sorted, non-overlapping down windows, queryable by instant.
// The zero value is an always-up schedule. A Schedule is immutable after
// construction and safe for concurrent reads.
type Schedule struct {
	downs []orbit.Window
}

// StationSchedule derives the outage schedule of one receive ground
// station for [start, end): Gilbert churn from the stream
// "fault/station/<id>" merged with the shared maintenance windows.
func (c Config) StationSchedule(seed int64, stationID string, start, end time.Time) Schedule {
	churn := gilbert(sim.NewRNG(seed, "fault/station/"+stationID), start, end, c.StationMTBF, c.StationMTTR)
	return newSchedule(churn, c.Maintenance)
}

// DrainSchedule derives the outage schedule of one operator drain station
// (by its index in the ground segment) from the stream "fault/drain/<i>".
func (c Config) DrainSchedule(seed int64, station int, start, end time.Time) Schedule {
	churn := gilbert(sim.NewRNG(seed, "fault/drain/"+strconv.Itoa(station)), start, end, c.DrainMTBF, c.DrainMTTR)
	return newSchedule(churn, nil)
}

// SatSchedule derives the beacon-blackout schedule of one satellite from
// the stream "fault/sat/<norad>".
func (c Config) SatSchedule(seed int64, noradID int, start, end time.Time) Schedule {
	churn := gilbert(sim.NewRNG(seed, "fault/sat/"+strconv.Itoa(noradID)), start, end, c.SatMTBF, c.SatMTTR)
	return newSchedule(churn, nil)
}

// LinkSchedule derives the churn schedule of one inter-satellite link from
// the stream "fault/link/<id>". The id should name the link's endpoints
// canonically (e.g. "91001-91002" with the lower NORAD ID first) so the two
// directions of an undirected link share one schedule.
func (c Config) LinkSchedule(seed int64, linkID string, start, end time.Time) Schedule {
	churn := gilbert(sim.NewRNG(seed, "fault/link/"+linkID), start, end, c.LinkMTBF, c.LinkMTTR)
	return newSchedule(churn, nil)
}

// LinkID renders the canonical undirected link identifier for a satellite
// pair: lower NORAD ID first.
func LinkID(noradA, noradB int) string {
	if noradB < noradA {
		noradA, noradB = noradB, noradA
	}
	return strconv.Itoa(noradA) + "-" + strconv.Itoa(noradB)
}

// gilbert realizes the two-state up/down process on [start, end):
// exponential up spans with mean mtbf alternating with exponential down
// spans with mean mttr, starting up. Returns the down windows.
func gilbert(rng *sim.RNG, start, end time.Time, mtbf, mttr time.Duration) []orbit.Window {
	if mtbf <= 0 || mttr <= 0 || !end.After(start) {
		return nil
	}
	var downs []orbit.Window
	t := start
	for t.Before(end) {
		up := time.Duration(rng.Exponential(float64(mtbf)))
		if up <= 0 {
			up = time.Nanosecond
		}
		t = t.Add(up)
		if !t.Before(end) {
			break
		}
		down := time.Duration(rng.Exponential(float64(mttr)))
		if down <= 0 {
			down = time.Nanosecond
		}
		downEnd := t.Add(down)
		if downEnd.After(end) {
			downEnd = end
		}
		downs = append(downs, orbit.Window{Start: t, End: downEnd})
		t = downEnd
	}
	return downs
}

// newSchedule merges the window sets into one sorted, non-overlapping
// outage timeline via the shared MergeWindows machinery.
func newSchedule(sets ...[]orbit.Window) Schedule {
	var all []orbit.Window
	for _, ws := range sets {
		all = append(all, ws...)
	}
	return Schedule{downs: orbit.MergeWindows(all)}
}

// Down reports whether the component is down at t.
func (s Schedule) Down(t time.Time) bool {
	lo, hi := 0, len(s.downs)
	for lo < hi {
		mid := (lo + hi) / 2
		w := s.downs[mid]
		switch {
		case t.Before(w.Start):
			hi = mid
		case !t.Before(w.End):
			lo = mid + 1
		default:
			return true
		}
	}
	return false
}

// NextUp returns the earliest instant at or after t when the component is
// up (t itself when already up).
func (s Schedule) NextUp(t time.Time) time.Time {
	idx := sort.Search(len(s.downs), func(i int) bool { return s.downs[i].End.After(t) })
	if idx < len(s.downs) && !t.Before(s.downs[idx].Start) {
		return s.downs[idx].End
	}
	return t
}

// Windows returns the merged outage windows.
func (s Schedule) Windows() []orbit.Window { return s.downs }

// DownTime returns the total outage duration overlapping [start, end).
func (s Schedule) DownTime(start, end time.Time) time.Duration {
	var total time.Duration
	for _, w := range s.downs {
		ws, we := w.Start, w.End
		if ws.Before(start) {
			ws = start
		}
		if we.After(end) {
			we = end
		}
		if we.After(ws) {
			total += we.Sub(ws)
		}
	}
	return total
}

// OutageCount returns the number of outage windows overlapping [start, end).
func (s Schedule) OutageCount(start, end time.Time) int {
	n := 0
	for _, w := range s.downs {
		if w.End.After(start) && w.Start.Before(end) {
			n++
		}
	}
	return n
}

// Availability returns the up fraction of [start, end).
func (s Schedule) Availability(start, end time.Time) float64 {
	span := end.Sub(start)
	if span <= 0 {
		return 1
	}
	return 1 - float64(s.DownTime(start, end))/float64(span)
}
