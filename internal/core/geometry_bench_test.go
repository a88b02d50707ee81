package core

import (
	"context"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/constellation"
)

// BenchmarkSeedIndependentPhases measures one job of a geometry on four
// servebench shapes, each for one day from 2024-09-01: routing
// Tianqi-compare, passive tianqi (HK and SYD over Tianqi), coverage over
// 9 latitudes and backhaul over Tianqi. Coverage and backhaul have no
// seed; where the others take seed i, they start i minutes later, with
// the fleet epoched at that start, as servebench's cold-mix jobs do.
// Every run hands its units to a Checkpoint hook, as a server's attempt
// does:
//
//   - cold: through an empty memo, so every phase computes;
//   - warm: another seed of the geometry (for coverage and backhaul,
//     another start of the trajectory, so its grid rotates held samples)
//     through a memo two runs, at seeds 0 and -1, filled;
//   - shard-warm: that run as a shard over every unit, which returns
//     right after its checkpointed phase, as a worker's shard run does.
//     For coverage and backhaul it repeats warm's starts, whose rotated
//     grids the memo did not file, so it rotates again.
func BenchmarkSeedIndependentPhases(b *testing.B) {
	ctx := context.Background()
	start := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	hk, _ := SiteByCode("HK")
	syd, _ := SiteByCode("SYD")
	tianqi := constellation.Tianqi(start)
	lats := []float64{-75, -56.25, -37.5, -18.75, 0, 18.75, 37.5, 56.25, 75}
	at := func(minutes int64) time.Time { return start.Add(time.Duration(minutes) * time.Minute) }
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
		{"coverage-9lat", len(lats), func(seed int64, rc RunContext) error {
			_, err := RevisitAnalysisCtx(ctx, constellation.Tianqi(at(seed)), lats, at(seed), 1, rc)
			return err
		}},
		{"backhaul-Tianqi", len(tianqi.Sats), func(seed int64, rc RunContext) error {
			_, err := RunBackhaulCtx(ctx, BackhaulConfig{Constellation: constellation.Tianqi(at(seed)), Start: at(seed), Days: 1,
				Step: time.Minute, MinDrainGap: 150 * time.Minute, RunContext: rc})
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
			for _, seed := range []int64{0, -1} {
				run(b, seed, RunContext{Memo: warm, Checkpoint: discard})
			}
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
