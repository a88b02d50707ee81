package core

import (
	"context"
	"sort"
	"time"

	"github.com/sinet-io/sinet/internal/backhaul"
	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/orbit"
)

// BackhaulConfig configures a downlink-opportunity sweep: for each
// satellite, the drain windows the operator's ground segment offers over
// the campaign span — the store-and-forward drain capacity the active
// campaign books into. Every field but RunContext must be set; the
// service's backhaul spec normalizes them.
type BackhaulConfig struct {
	Constellation constellation.Constellation
	// Start and Days bound the sweep.
	Start time.Time
	Days  int
	// Step is the window-search scan step.
	Step time.Duration
	// MinDrainGap spaces the booked drain sessions.
	MinDrainGap time.Duration
	// RunContext observes the "ephemeris" and "satellites" phases;
	// "satellites" — one unit per satellite — is the phase that
	// checkpoints and shards.
	RunContext `json:"-"`
}

// BackhaulResult is a completed backhaul sweep: per satellite, the drain
// opportunities the ground segment offers over the span.
type BackhaulResult struct {
	Constellation string        `json:"constellation"`
	Start         time.Time     `json:"start"`
	Days          int           `json:"days"`
	Satellites    []SatBackhaul `json:"satellites"`
}

// SatBackhaul summarizes one satellite's downlink opportunities.
type SatBackhaul struct {
	NoradID      int           `json:"norad_id"`
	Name         string        `json:"name"`
	Windows      int           `json:"windows"`
	WindowTime   time.Duration `json:"window_time"`
	Drains       int           `json:"drains"`
	MeanDrainGap time.Duration `json:"mean_drain_gap"`
}

// RunBackhaulCtx sweeps the operator ground segment for each satellite's
// downlink opportunities, with cooperative cancellation checked per
// satellite. The per-satellite results checkpoint under the "satellites"
// phase; the shared ephemeris grid is an input, not an output, built only
// when some satellite is left to compute.
func RunBackhaulCtx(ctx context.Context, cfg BackhaulConfig) (*BackhaulResult, error) {
	props, err := cfg.Constellation.Propagators()
	if err != nil {
		return nil, err
	}
	segment := backhaul.TianqiGroundSegment()
	end := cfg.Start.Add(time.Duration(cfg.Days) * 24 * time.Hour)

	// One shared struct-of-arrays grid: the 12-station window sweep of
	// every satellite reads the shared samples. A sweep with any satellite
	// left to compute propagates every row; one that restores every
	// satellite, as a merge does, propagates none.
	var grid *orbit.EphemerisGrid
	setup := func() error {
		grids, err := propagate(ctx, cfg.RunContext, cfg.Start, end, orbit.EphemerisConfig{ScanStep: cfg.Step}, props)
		if err != nil {
			return err
		}
		grid = grids[0]
		return nil
	}
	res := &BackhaulResult{Constellation: cfg.Constellation.Name, Start: cfg.Start, Days: cfg.Days}
	res.Satellites = make([]SatBackhaul, len(props))
	if err := forEachCheckpointed(ctx, cfg.RunContext, "satellites", res.Satellites, nil, setup, func(i int) (SatBackhaul, error) {
		if err := ctx.Err(); err != nil {
			return SatBackhaul{}, err
		}
		windows := segment.DownlinkWindows(grid.Sat(i), cfg.Start, end, cfg.Step)
		drains := backhaul.ScheduleDrains(windows, cfg.MinDrainGap)
		sat := SatBackhaul{
			NoradID: props[i].Elements().NoradID,
			Name:    props[i].Elements().Name,
			Windows: len(windows),
			Drains:  len(drains),
		}
		for _, w := range windows {
			sat.WindowTime += w.Duration()
		}
		if len(drains) > 1 {
			sat.MeanDrainGap = drains[len(drains)-1].Sub(drains[0]) / time.Duration(len(drains)-1)
		}
		return sat, nil
	}); err != nil {
		return nil, err
	}
	if cfg.Shard != nil {
		// Shard run: the windowed units are with cfg.Checkpoint; only the
		// merge node, holding every satellite, sorts and assembles.
		return res, nil
	}
	sort.Slice(res.Satellites, func(i, j int) bool { return res.Satellites[i].NoradID < res.Satellites[j].NoradID })
	return res, nil
}
