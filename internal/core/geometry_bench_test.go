package core

import (
	"context"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/constellation"
)

// BenchmarkSeedIndependentPhases measures one job of a geometry on two
// servebench shapes, routing Tianqi-compare and passive tianqi (HK and
// SYD over Tianqi), each for one day from 2024-09-01. Every run hands its
// units to a Checkpoint hook, as a server's attempt does:
//
//   - cold: through an empty memo, so every phase computes;
//   - warm: another seed of the geometry through a memo one run filled;
//   - shard-warm: that run as a shard over every unit, which returns
//     right after its checkpointed phase, as a worker's shard run does.
func BenchmarkSeedIndependentPhases(b *testing.B) {
	ctx := context.Background()
	start := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	hk, _ := SiteByCode("HK")
	syd, _ := SiteByCode("SYD")
	tianqi := constellation.Tianqi(start)
	shapes := []struct {
		name  string
		units int
		run   func(seed int64, rc RunContext) error
	}{
		{"routing-Tianqi-compare", len(tianqi.Sats), func(seed int64, rc RunContext) error {
			_, err := RunRoutingCtx(ctx, RoutingConfig{Seed: seed, Start: start, Days: 1, Policy: PolicyCompare, RunContext: rc})
			return err
		}},
		{"passive-tianqi", 2, func(seed int64, rc RunContext) error {
			_, err := RunPassiveCtx(ctx, PassiveConfig{Seed: seed, Start: start, Days: 1, Sites: []Site{hk, syd},
				Constellations: []constellation.Constellation{tianqi}, RunContext: rc})
			return err
		}},
	}
	discard := func(string, int, int, []byte) {}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			run := func(b *testing.B, seed int64, rc RunContext) {
				if err := sh.run(seed, rc); err != nil {
					b.Fatal(err)
				}
			}
			warm := NewMemo(64<<20, nil)
			run(b, 0, RunContext{Memo: warm, Checkpoint: discard})
			b.Run("cold", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					run(b, int64(i+1), RunContext{Memo: NewMemo(64<<20, nil), Checkpoint: discard})
				}
			})
			b.Run("warm", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					run(b, int64(i+1), RunContext{Memo: warm, Checkpoint: discard})
				}
			})
			b.Run("shard-warm", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					run(b, int64(i+1), RunContext{Memo: warm, Checkpoint: discard, Shard: &ShardWindow{Lo: 0, Hi: sh.units}})
				}
			})
		})
	}
}
