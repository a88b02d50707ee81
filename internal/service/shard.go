package service

import (
	"context"
	"encoding/json"
	"fmt"

	"github.com/sinet-io/sinet/internal/core"
)

// ShardSpec marks a JobSpec as shard Index of Count of its parent
// campaign: the run computes only the parent's checkpointable-phase
// units falling in the shard's window and returns them as a ShardResult
// instead of a full campaign result. Shards are how the cluster
// coordinator splits one big campaign across workers; the shard clause
// participates in content addressing through the derived
// "parent/shard/i-of-n" ConfigKey.
type ShardSpec struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// ShardResult is a shard run's output: the snapshots of every unit in
// the shard's window, in the exact form the campaign's CheckpointFunc
// emitted them. Folding all shards' units into one core.Checkpoint and
// re-running the parent spec with it as Resume restores every unit and
// recomputes none, so the merged bytes equal an unsharded run's by the
// resume contract (see core.Checkpoint). JSON maps marshal with sorted
// keys, so equal shard runs serialize to equal bytes and shard results
// are themselves content-addressable.
type ShardResult struct {
	Index int              `json:"index"`
	Count int              `json:"count"`
	Units *core.Checkpoint `json:"units"`
}

// shardWindow is the contiguous unit range [lo, hi) shard i of n covers
// when u units split as evenly as possible: every unit belongs to
// exactly one shard and shard sizes differ by at most one.
func shardWindow(u, i, n int) (lo, hi int) {
	return i * u / n, (i + 1) * u / n
}

// validateShard checks the shard clause against the campaign's unit
// count.
func (s *JobSpec) validateShard(units int) error {
	sh := s.Shard
	if sh == nil {
		return nil
	}
	if sh.Count < 2 {
		return specErr("shard count must be at least 2, got %d", sh.Count)
	}
	if sh.Index < 0 || sh.Index >= sh.Count {
		return specErr("shard index %d out of [0, %d)", sh.Index, sh.Count)
	}
	if sh.Count > units {
		return specErr("shard count %d exceeds the campaign's %d units", sh.Count, units)
	}
	return nil
}

// ShardCount picks how many shards a spec should split into: enough
// that each shard stays at or under threshold units, capped at maxShards
// and at the unit count itself. 0 means the spec is not worth sharding
// (at or under threshold, already a shard, threshold disabled, or an
// invalid spec). It counts units on a private copy, so the caller's spec
// is never written.
func ShardCount(spec *JobSpec, threshold, maxShards int) int {
	if threshold <= 0 || maxShards < 2 || spec.Shard != nil {
		return 0
	}
	spec, err := spec.clone()
	if err != nil {
		return 0
	}
	c, err := spec.campaign()
	if err != nil || c.units <= threshold {
		return 0
	}
	u := c.units
	n := (u + threshold - 1) / threshold
	if n > maxShards {
		n = maxShards
	}
	if n > u {
		n = u
	}
	if n < 2 {
		return 0
	}
	return n
}

// SplitSpec derives the n shard sub-specs of a normalized parent spec:
// clones with shard clauses i-of-n attached. Each sub-spec
// content-addresses as "parent/shard/i-of-n".
func SplitSpec(spec *JobSpec, n int) ([]*JobSpec, error) {
	if spec.Shard != nil {
		return nil, specErr("cannot split a spec that is already a shard")
	}
	shards := make([]*JobSpec, n)
	for i := range shards {
		sub, err := spec.clone()
		if err != nil {
			return nil, err
		}
		sub.Shard = &ShardSpec{Index: i, Count: n}
		if err := sub.Normalize(); err != nil {
			return nil, err
		}
		shards[i] = sub
	}
	return shards, nil
}

// FoldShards merges shard result bytes (each a MarshalResult-serialized
// ShardResult) into one resume point holding every shard's units.
// Running the parent spec with it as Resume restores all units and
// recomputes none — the merge step of a sharded campaign.
func FoldShards(blobs [][]byte) (*core.Checkpoint, error) {
	cp := core.NewCheckpoint()
	for bi, b := range blobs {
		var sr ShardResult
		if err := json.Unmarshal(b, &sr); err != nil {
			return nil, fmt.Errorf("service: decode shard result %d: %w", bi, err)
		}
		if sr.Units == nil {
			continue
		}
		for phase, ps := range sr.Units.Phases {
			for idx, raw := range ps.Units {
				cp.Add(phase, idx, ps.Total, raw)
			}
		}
	}
	return cp, nil
}

// runShard executes a shard sub-spec: the parent campaign restricted to
// the shard's unit window, with every in-window unit captured into the
// returned ShardResult. Units already present in rc.Resume (a worker
// crash mid-shard replays its journal like any other job) seed the result
// and are restored, not recomputed; rc.Checkpoint still observes newly
// computed units so the shard journals durably.
func runShard(ctx context.Context, sh *ShardSpec, c campaign, rc RunContext) (*ShardResult, error) {
	lo, hi := shardWindow(c.units, sh.Index, sh.Count)
	cp := core.NewCheckpoint()
	if rc.Resume != nil {
		// Restored units never re-enter the CheckpointFunc, so carry the
		// journaled in-window units into the shard result up front; a
		// recomputed unit (corrupt or stale snapshot) overwrites its seed.
		for phase, ps := range rc.Resume.Phases {
			for idx, raw := range ps.Units {
				if idx >= lo && idx < hi {
					cp.Add(phase, idx, ps.Total, raw)
				}
			}
		}
	}
	inner := rc
	inner.Checkpoint = func(phase string, index, total int, unit []byte) {
		cp.Add(phase, index, total, unit)
		if rc.Checkpoint != nil {
			rc.Checkpoint(phase, index, total, unit)
		}
	}
	inner.Shard = &core.ShardWindow{Lo: lo, Hi: hi}
	if _, err := c.run(ctx, inner); err != nil {
		return nil, err
	}
	return &ShardResult{Index: sh.Index, Count: sh.Count, Units: cp}, nil
}
