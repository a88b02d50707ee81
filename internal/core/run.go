package core

import (
	"context"

	"github.com/sinet-io/sinet/internal/orbit"
	"github.com/sinet-io/sinet/internal/sim"
	"github.com/sinet-io/sinet/internal/tracing"
)

// RunContext carries a campaign run's execution hooks. Every campaign
// config embeds it (PassiveConfig, ActiveConfig, RoutingConfig,
// BackhaulConfig) and RevisitAnalysisCtx takes it directly; the zero value
// runs the campaign plain. It is excluded from JSON serialization, so it
// never reaches a result's Config or a derived content key.
//
// Progress, Checkpoint and Resume observe execution without
// parameterizing it: attaching them never changes campaign results. Shard
// does parameterize the run, so callers must fold shard identity into any
// derived content key (see ShardWindow).
type RunContext struct {
	// Progress observes the campaign's phases as their fan-outs complete;
	// nil observes nothing.
	Progress ProgressFunc
	// Checkpoint receives each completed unit of the campaign's
	// checkpointable phase for durable snapshotting; Resume restores such
	// a snapshot, skipping the units it holds. A resumed run is
	// byte-identical to an uninterrupted one (see Checkpoint).
	Checkpoint CheckpointFunc
	Resume     *Checkpoint
	// Shard restricts the checkpointable phase to a window of its units
	// and returns right after that phase: the result is a shard fragment,
	// not a full campaign (see ShardWindow).
	Shard *ShardWindow
}

// ProgressFunc observes a campaign's execution phases: it is called with a
// short phase name and the completed/total unit counts of that phase.
// Callbacks arrive serialized (never concurrently) with completed strictly
// increasing within a phase, so implementations need no locking of their
// own; they must not block, since they run on the campaign's worker pool.
//
// Attach one as the Progress hook of any campaign's RunContext. It
// observes execution, it does not parameterize it.
type ProgressFunc func(phase string, completed, total int)

// propagate runs a campaign's "ephemeris" phase: it samples every row of
// the given grids across the worker pool, then finishes each grid. Each
// worker fills only its own row, so the fan-out never races. Grid rows
// are inputs, not outputs — they rebuild on resume and never checkpoint.
// The context is checked per satellite.
func propagate(ctx context.Context, progress ProgressFunc, grids ...*orbit.EphemerisGrid) error {
	type row struct{ grid, sat int }
	var rows []row
	for gi, g := range grids {
		for si := 0; si < g.Sats(); si++ {
			rows = append(rows, row{gi, si})
		}
	}
	err := sim.Phase(ctx, "ephemeris", len(rows), func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		grids[rows[i].grid].Propagate(rows[i].sat)
		return nil
	}, progress, tracing.Int("units", len(rows)))
	if err != nil {
		return err
	}
	for _, g := range grids {
		g.Finish()
	}
	return nil
}
