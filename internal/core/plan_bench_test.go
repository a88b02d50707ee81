package core

import (
	"context"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/constellation"
	"github.com/sinet-io/sinet/internal/orbit"
)

// BenchmarkActivePlanPhase measures the active campaign's checkpointed
// plan phase on the fig5a-1d shape (Tianqi, one day, three nodes,
// max_retx 5). Each iteration is a shard run, which returns right after
// the plan phase, over every unit unless said otherwise, through a memo
// that already holds the grid, so the ephemeris phase is one lookup:
//
//   - compute: every unit computed and marshaled for the Checkpoint hook;
//   - memo: every unit a memo hit;
//   - resume: every unit decoded from a resume point, as a merge does;
//   - resume+memo: that resume point through a memo warmed by one
//     resume-only merge;
//   - shard+memo: a shard over the first half of the units, as a
//     worker's shard of a two-way split runs, through a memo a shard of
//     that window filled, handing the held bytes to the Checkpoint hook.
func BenchmarkActivePlanPhase(b *testing.B) {
	ctx := context.Background()
	cfg := ActiveConfig{Seed: 1, Start: memoStart, Days: 1, Nodes: 3}
	cfg.Policy.MaxRetx = 5
	props, err := constellation.Tianqi(memoStart).Propagators()
	if err != nil {
		b.Fatal(err)
	}
	ephCfg := orbit.EphemerisConfig{ScanStep: time.Minute}
	horizon := memoStart.Add(24*time.Hour + graceAfterEnd)
	grids, err := propagate(ctx, RunContext{}, memoStart, horizon, ephCfg, props)
	if err != nil {
		b.Fatal(err)
	}
	gk, _ := gridKey(props, memoStart, horizon, ephCfg)
	gridMemo := func() *Memo {
		m := NewMemo(64<<20, nil)
		m.put(gk, grids[0], grids[0].Bytes())
		return m
	}
	all, half := &ShardWindow{Lo: 0, Hi: len(props)}, &ShardWindow{Lo: 0, Hi: len(props) / 2}
	run := func(b *testing.B, rc RunContext) {
		c := cfg
		c.RunContext = rc
		if c.Shard == nil {
			c.Shard = all
		}
		if _, err := RunActiveCtx(ctx, c); err != nil {
			b.Fatal(err)
		}
	}
	resume, save := captureCheckpoint()
	computed := gridMemo()
	run(b, RunContext{Memo: computed, Checkpoint: save})
	if computed.lru.Len() != 2 || resume.Len() != len(props) {
		b.Fatalf("setup filed %d memo entries and saved %d units, want the grid and the plan and %d units",
			computed.lru.Len(), resume.Len(), len(props))
	}
	merged := gridMemo()
	run(b, RunContext{Memo: merged, Resume: resume})
	halved := gridMemo()
	run(b, RunContext{Memo: halved, Shard: half})
	discard := func(string, int, int, []byte) {}

	b.Run("compute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, RunContext{Memo: gridMemo(), Checkpoint: discard})
		}
	})
	b.Run("memo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, RunContext{Memo: computed})
		}
	})
	b.Run("resume", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, RunContext{Memo: gridMemo(), Resume: resume})
		}
	})
	b.Run("resume+memo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, RunContext{Memo: merged, Resume: resume})
		}
	})
	b.Run("shard+memo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, RunContext{Memo: halved, Checkpoint: discard, Shard: half})
		}
	})
}
