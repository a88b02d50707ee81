package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"github.com/sinet-io/sinet/internal/sim"
	"github.com/sinet-io/sinet/internal/tracing"
)

// ShardWindow restricts a campaign's checkpointable phase to the
// contiguous unit-index range [Lo, Hi). Units outside the window are
// neither computed nor restored — their output slots stay zero — and the
// campaign returns right after the sharded phase instead of assembling a
// full result, reading no slot of the phase. A shard run therefore only
// produces unit snapshots (via the RunContext's CheckpointFunc), and a
// shard whose window the memo holds fills no slot at all: it hands the
// held bytes to the CheckpointFunc. Folding every shard's snapshots into
// one Checkpoint and re-running the campaign with it as Resume reassembles
// the exact bytes an unsharded run would have produced, because restored
// units are byte-exact by the resume contract above. This is the
// primitive the serving cluster's deterministic campaign splitting is
// built on.
//
// Unlike Progress/Checkpoint/Resume, a ShardWindow DOES parameterize the
// run (it bounds which units exist), so shard identity must be part of
// any content key derived from a sharded config — the service layer
// derives "parent/shard/i-of-n" keys for exactly this reason.
type ShardWindow struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// validate checks the window against a phase of n units.
func (w *ShardWindow) validate(n int) error {
	if w == nil {
		return nil
	}
	if w.Lo < 0 || w.Hi > n || w.Lo >= w.Hi {
		return fmt.Errorf("%w: shard window [%d,%d) out of range for %d units", ErrInvalidConfig, w.Lo, w.Hi, n)
	}
	return nil
}

// CheckpointFunc receives one completed work unit's snapshot: the campaign
// phase it belongs to, its index and the phase's unit count, and the
// unit's serialized output. Calls arrive serialized (never concurrently),
// in completion order — NOT index order; the snapshot is index-addressed
// precisely so order does not matter. Implementations persist the unit
// (sinetd appends it to the job journal) and must not mutate the byte
// slice. Like ProgressFunc it observes execution without parameterizing
// it: the field is excluded from JSON serialization and config keys, and
// attaching one never changes campaign results.
//
// Only phases whose units are pure serializable values checkpoint:
// "contacts" (passive), "plan" (active), "latitudes" (coverage),
// "packets" (routing) and "satellites" (backhaul). Shared
// setup phases ("ephemeris", "topology") rebuild from the config on
// resume — their outputs are large in-memory structures that every
// computed unit reads anyway — unless nothing reads them or the run's
// memo holds what they would build. Coverage and backhaul propagate
// their grid only when a unit is left to compute, so a full restore (a
// merge) propagates nothing; a memo-held grid is not propagated again,
// and one whose trajectory the memo holds rotates those samples instead
// of running SGP4; and a routing run that finds its topology summary in
// the memo builds the topology only for packet units left to compute
// that need relay search.
type CheckpointFunc func(phase string, index, total int, unit []byte)

// Checkpoint is a campaign resume point: for each checkpointable phase,
// the serialized outputs of the work units completed so far. Passing one
// as a config's Resume restores those units instead of recomputing them.
//
// Resumption is byte-exact by construction: the worker pool writes each
// unit into an index-addressed slot merged in serial order, units are
// pure values of their inputs (every stochastic draw comes from a named
// per-unit RNG stream), and the snapshot JSON round-trips exactly (Go
// time.Time and float64 encode/decode losslessly) — so a slot restored
// from a snapshot holds the same value the recomputation would have
// produced, and the merged result is bit-identical to an uninterrupted
// run. The kill-and-resume golden tests pin this.
type Checkpoint struct {
	Phases map[string]*PhaseSnapshot `json:"phases"`
}

// PhaseSnapshot is one phase's completed units, keyed by unit index.
type PhaseSnapshot struct {
	// Total is the phase's unit count when the snapshot was taken. A
	// snapshot only restores into a phase of the same size: a config
	// change that alters the unit count invalidates it.
	Total int `json:"total"`
	// Units maps unit index to the unit's serialized output.
	Units map[int]json.RawMessage `json:"units"`
}

// NewCheckpoint returns an empty checkpoint ready for Add.
func NewCheckpoint() *Checkpoint {
	return &Checkpoint{Phases: map[string]*PhaseSnapshot{}}
}

// Add records one completed unit. It keeps unit, not a copy: the caller
// hands over bytes it will not modify. It is not safe for concurrent use;
// the CheckpointFunc serialization contract means callers feeding a
// checkpoint from a running campaign need no extra locking, but callers
// folding journal records must do so from one goroutine.
func (c *Checkpoint) Add(phase string, index, total int, unit []byte) {
	if c.Phases == nil {
		c.Phases = map[string]*PhaseSnapshot{}
	}
	ps := c.Phases[phase]
	if ps == nil || ps.Total != total {
		// First unit of the phase — or a unit count mismatch, meaning the
		// snapshot predates a config change: start the phase over.
		ps = &PhaseSnapshot{Total: total, Units: map[int]json.RawMessage{}}
		c.Phases[phase] = ps
	}
	ps.Units[index] = unit
}

// Len reports the total number of snapshotted units across phases.
func (c *Checkpoint) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, ps := range c.Phases {
		n += len(ps.Units)
	}
	return n
}

// units returns the named phase's snapshotted units if the snapshot
// matches the phase's current unit count, else nil. Nil-receiver safe.
func (c *Checkpoint) units(phase string, total int) map[int]json.RawMessage {
	if c == nil {
		return nil
	}
	if ps := c.Phases[phase]; ps != nil && ps.Total == total {
		return ps.Units
	}
	return nil
}

// forEachCheckpointed runs one checkpointable phase as one sim.Phase over
// the units it does not restore; it is the one way a unit enters its slot.
// out's length is the unit count, fn(i) computes unit i, and in holds the
// phase's memo key inputs (nil where it is not memoized), to which the
// run's window is appended. A memo hit restores the window in the one
// form its reader reads: a full run's entry is its values, which go into
// their slots, shared; a shard's is its units' checkpoint bytes, which go
// to rc.Checkpoint for the units rc.Resume lacks, in index order, filling
// no slot (a shard run reads none after its phase). On a miss, units in
// rc.Resume are decoded and the rest computed, each serialized only for
// rc.Checkpoint, before its progress report, or for a shard's entry.
// Restored units are not checkpointed. A miss whose phase returned nil
// files its window with one put: a copy of the values, or every window
// unit's bytes (none if one failed to serialize), so a merge files the
// units its shards computed. Progress spans the whole phase (restored
// units count as already complete), preserving the strictly-increasing
// contract. A non-nil rc.Shard narrows the phase to its window: only
// in-window units restore or compute (saves still report the full phase
// size, so shard snapshots fold directly into a full-phase resume point),
// and progress totals cover the window. The phase span is annotated with
// the restored/computed unit counts and, when sharded, the window. setup,
// when non-nil, runs once before the fan-out and only when some window
// unit is left to compute: it builds what computing a unit reads and
// restoring one does not (routing's topology, the coverage and backhaul
// grids).
func forEachCheckpointed[T any](ctx context.Context, rc RunContext, phase string, out []T, in *keyInputs, setup func() error, fn func(i int) (T, error)) error {
	n := len(out)
	shard, progress, save := rc.Shard, rc.Progress, rc.Checkpoint
	if err := shard.validate(n); err != nil {
		return err
	}
	window := ShardWindow{Lo: -1, Hi: -1} // the full phase, in a memo key
	lo, hi := 0, n
	if shard != nil {
		window, lo, hi = *shard, shard.Lo, shard.Hi
	}
	span, resumed := hi-lo, rc.Resume.units(phase, n)
	var key memoKey
	var entry any
	keyed, held := rc.Memo != nil && in != nil, false
	if keyed {
		in.int(int64(window.Lo))
		in.int(int64(window.Hi))
		if key, keyed = in.sum(); keyed {
			entry, held = rc.Memo.get(key, in.kind)
		}
	}
	switch e := entry.(type) {
	case []T:
		copy(out, e)
	case [][]byte:
		for k, raw := range e {
			if i := lo + k; save != nil && resumed[i] == nil {
				save(phase, i, n, raw)
			}
		}
	}
	raws, fileRaws := make([][]byte, span), keyed && !held && shard != nil
	restored := make([]bool, span)
	for i, raw := range resumed {
		if held || i < lo || i >= hi {
			continue
		}
		var v T
		if err := json.Unmarshal(raw, &v); err != nil {
			continue // corrupt unit: recompute it
		}
		out[i], restored[i-lo], raws[i-lo] = v, true, raw
	}
	var pending []int
	for i := lo; i < hi && !held; i++ {
		if !restored[i-lo] {
			pending = append(pending, i)
		}
	}
	nRestored := span - len(pending)
	if setup != nil && len(pending) > 0 {
		if err := setup(); err != nil {
			return err
		}
	}
	var report ProgressFunc
	if progress != nil {
		if nRestored > 0 {
			progress(phase, nRestored, span)
		}
		report = func(phase string, completed, _ int) { progress(phase, nRestored+completed, span) }
	}
	attrs := []tracing.Attr{
		tracing.Int("units", span),
		tracing.Int("restored", nRestored),
		tracing.Int("computed", len(pending)),
	}
	if shard != nil {
		attrs = append(attrs, tracing.Int("shard_lo", shard.Lo), tracing.Int("shard_hi", shard.Hi))
	}
	var mu sync.Mutex
	err := sim.Phase(ctx, phase, len(pending), func(k int) error {
		i := pending[k]
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		if save != nil || fileRaws {
			if raw, err := json.Marshal(v); err == nil {
				raws[i-lo] = raw
				if save != nil {
					mu.Lock()
					save(phase, i, n, raw)
					mu.Unlock()
				}
			}
		}
		return nil
	}, report, attrs...)
	if err != nil || !keyed || held {
		return err
	}
	if shard == nil {
		vals := append([]T(nil), out...)
		rc.Memo.put(key, vals, valuesBytes(vals))
		return nil
	}
	var size int64
	for _, raw := range raws {
		if raw == nil {
			return nil // a unit failed to serialize
		}
		size += int64(len(raw))
	}
	rc.Memo.put(key, raws, size)
	return nil
}
