package core

import (
	"context"
	"time"

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
// Progress, Checkpoint, Resume and Memo observe or skip execution without
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
	// Memo, when non-nil, serves seed-independent geometry computed by
	// earlier runs — propagated ephemeris grids, the TEME samples of
	// trajectories, active plan units, and fault-free routing packet
	// units and topology summaries — and files what this run built,
	// decoded or computed of it (see Memo). A run that finds what a setup
	// phase would build skips that phase. Like Resume it never changes
	// results.
	Memo *Memo
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

// propagate runs a campaign's "ephemeris" phase: it returns one
// propagated grid per propagator set, each over [start, end] under cfg.
// Grids rc.Memo holds are reused as they are; the rest are built and
// their rows sampled across the worker pool. A grid the memo misses is
// looked up again by its trajectory (orbitKey), which reaches past the
// start, and the phase files by one rule once it returned nil, so a
// canceled or failed propagation files nothing:
//
//   - samples held: the rows rotate them, SGP4 does not run, and the grid
//     is not filed (rebuilding it costs a rotation, and a start-shifted
//     grid is seldom read again);
//   - a note held: SGP4 runs, keeping its TEME samples, which replace the
//     note unless a row failed to propagate, and the grid is filed;
//   - nothing held: SGP4 runs, and the grid and a note are filed.
//
// So while the memo holds a trajectory SGP4 runs for it at most twice,
// and a trajectory seen at one start costs a note. Each worker fills only
// its own row, so the fan-out never races. Grid rows are inputs, not
// outputs — they rebuild on resume and never checkpoint. The context is
// checked per satellite.
func propagate(ctx context.Context, rc RunContext, start, end time.Time, cfg orbit.EphemerisConfig, props ...[]*orbit.Propagator) ([]*orbit.EphemerisGrid, error) {
	grids := make([]*orbit.EphemerisGrid, len(props))
	type built struct {
		grid           int
		key, orbit     memoKey
		keyed, tracked bool // grid keyed; trajectory looked up
		held           any  // what the orbit lookup found
	}
	var fresh []built
	type row struct{ grid, sat int }
	var rows []row
	for gi, ps := range props {
		b := built{grid: gi}
		if rc.Memo != nil {
			if b.key, b.keyed = gridKey(ps, start, end, cfg); b.keyed {
				if g, ok := rc.Memo.get(b.key, kindGrid); ok {
					grids[gi] = g.(*orbit.EphemerisGrid)
					continue
				}
			}
		}
		g := orbit.NewEphemerisGrid(ps, start, end, cfg)
		if rc.Memo != nil && g.Sats() > 0 {
			b.orbit, b.tracked = orbitKey(ps, start, g.Step(), g.Steps()), true
			b.held, _ = rc.Memo.get(b.orbit, kindOrbit)
			switch held := b.held.(type) {
			case *orbit.Trajectory:
				g.Rotate(held)
			case orbitNote:
				g.Record()
			}
		}
		grids[gi] = g
		fresh = append(fresh, b)
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
	}, rc.Progress, tracing.Int("units", len(rows)), tracing.Int("memo_grids", len(props)-len(fresh)))
	if err != nil {
		return nil, err
	}
	for _, b := range fresh {
		g := grids[b.grid]
		tr := g.Trajectory()
		g.Finish()
		switch b.held.(type) {
		case *orbit.Trajectory:
			continue
		case orbitNote:
			if tr != nil {
				rc.Memo.put(b.orbit, tr, tr.Bytes())
			}
		default:
			if b.tracked {
				rc.Memo.note(b.orbit)
			}
		}
		if b.keyed {
			rc.Memo.put(b.key, g, g.Bytes())
		}
	}
	return grids, nil
}
