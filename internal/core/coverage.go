package core

import (
	"context"
	"fmt"
	"time"

	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/orbit"
)

// RevisitStats answers the §3.1 question "can a constellation offer IoT
// connectivity anytime, anywhere?" quantitatively for one latitude: how
// long a ground device waits between theoretical contact opportunities.
type RevisitStats struct {
	LatitudeDeg float64
	// DailyCoverage is the mean per-day union visibility duration.
	DailyCoverage time.Duration
	// MeanGap / MaxGap are the waits between consecutive contact windows.
	MeanGap time.Duration
	MaxGap  time.Duration
	Passes  int
}

// String implements fmt.Stringer.
func (r RevisitStats) String() string {
	return fmt.Sprintf("lat %+5.1f°: %v/day coverage, gaps mean %v max %v (%d passes)",
		r.LatitudeDeg, r.DailyCoverage.Round(time.Minute),
		r.MeanGap.Round(time.Minute), r.MaxGap.Round(time.Minute), r.Passes)
}

// RevisitAnalysis sweeps test sites across latitudes (at longitude 0) and
// computes the constellation's theoretical coverage and revisit gaps over
// the given number of days. It is purely geometric — the optimistic bound
// that §3.1 then shows collapsing once real link budgets apply.
func RevisitAnalysis(cons constellation.Constellation, latitudesDeg []float64, start time.Time, days int) ([]RevisitStats, error) {
	return RevisitAnalysisCtx(context.Background(), cons, latitudesDeg, start, days, RunContext{})
}

// RevisitAnalysisCtx is RevisitAnalysis with cooperative cancellation (the
// context is checked per satellite while ephemerides build and per latitude
// while gaps compute) and the RunContext hooks: progress over the
// "ephemeris" and "latitudes" phases, and checkpoint, resume and shard
// over "latitudes", whose units (one RevisitStats each) are pure
// serializable values. A resumed analysis restores completed latitudes and
// is byte-identical to an uninterrupted one; one that restores every
// latitude propagates nothing. A shard run leaves out-of-window slots zero
// and returns a shard fragment.
func RevisitAnalysisCtx(ctx context.Context, cons constellation.Constellation, latitudesDeg []float64, start time.Time, days int, rc RunContext) ([]RevisitStats, error) {
	props, err := cons.Propagators()
	if err != nil {
		return nil, err
	}
	end := start.Add(time.Duration(days) * 24 * time.Hour)

	// Sample the whole constellation once into a shared struct-of-arrays
	// grid, before the first latitude left to compute; every latitude's
	// pass search then reads the grid instead of re-propagating.
	var grid *orbit.EphemerisGrid
	setup := func() error {
		grids, err := propagate(ctx, rc, start, end, orbit.EphemerisConfig{ScanStep: time.Minute}, props)
		if err != nil {
			return err
		}
		grid = grids[0]
		return nil
	}

	out := make([]RevisitStats, len(latitudesDeg))
	if err := forEachCheckpointed(ctx, rc, "latitudes", out, nil, setup, func(li int) (RevisitStats, error) {
		if err := ctx.Err(); err != nil {
			return RevisitStats{}, err
		}
		site := orbit.NewGeodeticDeg(latitudesDeg[li], 0, 0)
		passes := make([]orbit.Window, 0, 256)
		if grid.Sats() > 0 {
			pp := orbit.NewEphemerisPredictor(grid.Sat(0))
			for i := 0; i < grid.Sats(); i++ {
				pp.SetSource(grid.Sat(i))
				passes = pp.WindowsAppend(passes, site, start, end, 0)
			}
		}
		windows := orbit.MergeWindows(passes)
		gaps := orbit.Gaps(windows)

		stats := RevisitStats{LatitudeDeg: latitudesDeg[li], Passes: len(passes)}
		if days > 0 {
			stats.DailyCoverage = orbit.TotalDuration(windows) / time.Duration(days)
		}
		var sum time.Duration
		for _, g := range gaps {
			sum += g
			if g > stats.MaxGap {
				stats.MaxGap = g
			}
		}
		if len(gaps) > 0 {
			stats.MeanGap = sum / time.Duration(len(gaps))
		}
		return stats, nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}
