package service

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"github.com/sinet-io/sinet/internal/core"
)

// shardGoldenSpecs is one small campaign per job kind, each large enough
// to split three ways.
var shardGoldenSpecs = map[string]string{
	"passive":  `{"kind":"passive","passive":{"seed":11,"sites":["HK","SYD","LDN"],"constellations":["Tianqi"]}}`,
	"active":   `{"kind":"active","active":{"seed":5,"nodes":2}}`,
	"coverage": `{"kind":"coverage","coverage":{"latitudes_deg":[-30,0,30,60]}}`,
	"backhaul": `{"kind":"backhaul"}`,
	"routing":  `{"kind":"routing","routing":{"seed":3,"packet_interval":"2h"}}`,
}

// TestShardedMergeByteIdentical is the golden pin for deterministic
// campaign splitting: for every job kind, splitting the spec into three
// shards, running each shard independently, folding their unit snapshots
// and re-running the parent with the fold as Resume must produce bytes
// identical to a plain unsharded run.
func TestShardedMergeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ten full campaigns")
	}
	ctx := context.Background()
	for kind, body := range shardGoldenSpecs {
		kind, body := kind, body
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			var parent JobSpec
			if err := json.Unmarshal([]byte(body), &parent); err != nil {
				t.Fatal(err)
			}
			if err := parent.Normalize(); err != nil {
				t.Fatal(err)
			}
			direct, err := Run(ctx, &parent, RunContext{})
			if err != nil {
				t.Fatal(err)
			}
			golden, err := MarshalResult(direct)
			if err != nil {
				t.Fatal(err)
			}

			const n = 3
			shards, err := SplitSpec(&parent, n)
			if err != nil {
				t.Fatal(err)
			}
			blobs := make([][]byte, n)
			for i, sub := range shards {
				res, err := Run(ctx, sub, RunContext{})
				if err != nil {
					t.Fatalf("shard %d: %v", i, err)
				}
				sr, ok := res.(*ShardResult)
				if !ok {
					t.Fatalf("shard %d returned %T, want *ShardResult", i, res)
				}
				if sr.Units.Len() == 0 {
					t.Fatalf("shard %d captured no units", i)
				}
				if blobs[i], err = MarshalResult(res); err != nil {
					t.Fatal(err)
				}
			}
			folded, err := FoldShards(blobs)
			if err != nil {
				t.Fatal(err)
			}

			// The merge run must restore every unit: a compute on the merge
			// node means a shard window leaked a unit.
			merged, err := Run(ctx, &parent, RunContext{
				Resume: folded,
				Checkpoint: func(phase string, index, total int, unit []byte) {
					t.Errorf("merge run recomputed %s unit %d/%d", phase, index, total)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			mergedBytes, err := MarshalResult(merged)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mergedBytes, golden) {
				t.Fatalf("merged bytes (%d) differ from unsharded run (%d)", len(mergedBytes), len(golden))
			}

			// Through a memo warmed by the unsharded run, every shard and
			// the merge serve the memo-free bytes: the shards compute (a
			// full phase's entry serves no window) and the merge places
			// the full entry's values.
			memo := core.NewMemo(64<<20, nil)
			if got := runBytes(t, &parent, RunContext{Memo: memo}); !bytes.Equal(got, golden) {
				t.Fatal("unsharded bytes differ through a cold memo")
			}
			for i, sub := range shards {
				if got := runBytes(t, sub, RunContext{Memo: memo}); !bytes.Equal(got, blobs[i]) {
					t.Fatalf("shard %d bytes differ through a warmed memo", i)
				}
			}
			merged, err = Run(ctx, &parent, RunContext{
				Resume: folded,
				Memo:   memo,
				Checkpoint: func(phase string, index, total int, unit []byte) {
					t.Errorf("merge run through the memo recomputed %s unit %d/%d", phase, index, total)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if mergedBytes, err = MarshalResult(merged); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mergedBytes, golden) {
				t.Fatal("merged bytes through a warmed memo differ from the unsharded run")
			}

			// Shards filing into a cold memo one window at a time leave
			// window entries only later shards of those windows read, so
			// an unsharded run of the same geometry misses and computes.
			memo = core.NewMemo(64<<20, nil)
			for i, sub := range shards {
				if got := runBytes(t, sub, RunContext{Memo: memo}); !bytes.Equal(got, blobs[i]) {
					t.Fatalf("shard %d bytes differ through a cold memo", i)
				}
			}
			if got := runBytes(t, &parent, RunContext{Memo: memo}); !bytes.Equal(got, golden) {
				t.Fatal("unsharded bytes differ through a memo the shards filled")
			}
		})
	}
}

// TestShardRunsAreDeterministic pins that a shard run itself serializes
// reproducibly — shard results are content-addressable cache entries, so
// equal sub-specs must yield equal bytes.
func TestShardRunsAreDeterministic(t *testing.T) {
	ctx := context.Background()
	var parent JobSpec
	if err := json.Unmarshal([]byte(shardGoldenSpecs["coverage"]), &parent); err != nil {
		t.Fatal(err)
	}
	if err := parent.Normalize(); err != nil {
		t.Fatal(err)
	}
	shards, err := SplitSpec(&parent, 2)
	if err != nil {
		t.Fatal(err)
	}
	var runs [][]byte
	for i := 0; i < 2; i++ {
		res, err := Run(ctx, shards[1], RunContext{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := MarshalResult(res)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, b)
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatal("equal shard sub-specs produced different bytes")
	}
}

// TestShardResumeSeedsResult pins the crash path: units already in the
// job journal (rc.Resume) reappear in the shard result without being
// recomputed.
func TestShardResumeSeedsResult(t *testing.T) {
	ctx := context.Background()
	var parent JobSpec
	if err := json.Unmarshal([]byte(shardGoldenSpecs["coverage"]), &parent); err != nil {
		t.Fatal(err)
	}
	if err := parent.Normalize(); err != nil {
		t.Fatal(err)
	}
	shards, err := SplitSpec(&parent, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Full run of shard 0 captures its window's units.
	res, err := Run(ctx, shards[0], RunContext{})
	if err != nil {
		t.Fatal(err)
	}
	full := res.(*ShardResult)
	fullBytes, err := MarshalResult(full)
	if err != nil {
		t.Fatal(err)
	}
	// Resumed run: every unit restores, none recompute, same bytes.
	res2, err := Run(ctx, shards[0], RunContext{
		Resume: full.Units,
		Checkpoint: func(phase string, index, total int, unit []byte) {
			t.Errorf("resumed shard recomputed %s unit %d/%d", phase, index, total)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resumedBytes, err := MarshalResult(res2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumedBytes, fullBytes) {
		t.Fatal("resumed shard bytes differ from uninterrupted shard run")
	}
}

// TestShardKeys pins the derived-key contract: shards key under their
// parent's hash with a "/shard/i-of-n" suffix, stay distinct from the
// parent and each other, and abbreviate to a URL-path-safe Short form.
func TestShardKeys(t *testing.T) {
	var parent JobSpec
	if err := json.Unmarshal([]byte(shardGoldenSpecs["passive"]), &parent); err != nil {
		t.Fatal(err)
	}
	parentKey, err := ConfigKey(&parent)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := SplitSpec(&parent, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Key]bool{parentKey: true}
	for i, sub := range shards {
		k, err := ConfigKey(sub)
		if err != nil {
			t.Fatal(err)
		}
		want := Key(string(parentKey) + "/shard/" + string(rune('0'+i)) + "-of-3")
		if k != want {
			t.Fatalf("shard %d key %q, want %q", i, k, want)
		}
		if seen[k] {
			t.Fatalf("shard %d key collides", i)
		}
		seen[k] = true
		if k.Parent() != parentKey {
			t.Fatalf("Parent() = %q, want %q", k.Parent(), parentKey)
		}
		short := k.Short()
		if strings.ContainsAny(short, "/ ?#%") {
			t.Fatalf("shard Short %q is not URL-path-safe", short)
		}
		if want := parentKey.Short() + "-s" + string(rune('0'+i)) + "x3"; short != want {
			t.Fatalf("shard Short %q, want %q", short, want)
		}
	}
	if parentKey.Parent() != parentKey {
		t.Fatal("unsharded key's Parent() should be itself")
	}
}

// TestShardSpecValidation exercises the shard clause's Normalize rules.
func TestShardSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		body string
		ok   bool
	}{
		{"count 1", `{"kind":"coverage","coverage":{"latitudes_deg":[0,30]},"shard":{"index":0,"count":1}}`, false},
		{"negative index", `{"kind":"coverage","coverage":{"latitudes_deg":[0,30]},"shard":{"index":-1,"count":2}}`, false},
		{"index beyond count", `{"kind":"coverage","coverage":{"latitudes_deg":[0,30]},"shard":{"index":2,"count":2}}`, false},
		{"count beyond units", `{"kind":"coverage","coverage":{"latitudes_deg":[0,30]},"shard":{"index":0,"count":3}}`, false},
		{"valid", `{"kind":"coverage","coverage":{"latitudes_deg":[0,30]},"shard":{"index":1,"count":2}}`, true},
	}
	for _, tc := range cases {
		var spec JobSpec
		if err := json.Unmarshal([]byte(tc.body), &spec); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		err := spec.Normalize()
		if tc.ok && err != nil {
			t.Fatalf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Fatalf("%s: expected a validation error", tc.name)
		}
	}
}

// TestShardCountPolicy pins the split-decision heuristic.
func TestShardCountPolicy(t *testing.T) {
	big := &JobSpec{Kind: KindBackhaul} // Tianqi: 22 satellite units
	if err := big.Normalize(); err != nil {
		t.Fatal(err)
	}
	if n := ShardCount(big, 8, 16); n != 3 {
		t.Fatalf("22 units at threshold 8 should split 3 ways, got %d", n)
	}
	if n := ShardCount(big, 8, 2); n != 2 {
		t.Fatalf("maxShards should cap the split, got %d", n)
	}
	if n := ShardCount(big, 22, 16); n != 0 {
		t.Fatalf("at-threshold specs should not split, got %d", n)
	}
	if n := ShardCount(big, 0, 16); n != 0 {
		t.Fatalf("threshold 0 disables splitting, got %d", n)
	}
	sub, err := SplitSpec(big, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := ShardCount(sub[0], 1, 16); n != 0 {
		t.Fatalf("a shard must never re-split, got %d", n)
	}
}

// TestRunAndShardCountNeverWriteTheirSpec holds Run and ShardCount to
// working on a private copy: while both execute on a normalized spec,
// another goroutine marshals it in a loop, as SubmitTraced journals a spec
// a worker may already be running. Every marshal must equal the bytes from
// before the calls; under -race, any write to the shared spec, even of an
// equal value, is also reported as a data race.
func TestRunAndShardCountNeverWriteTheirSpec(t *testing.T) {
	spec, err := decodeStrict([]byte(`{"kind":"passive","passive":{"seed":3,"sites":["HK","SYD"],"constellations":["FOSSA"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			got, err := json.Marshal(spec)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("spec marshaled as %s (err %v) mid-call, want %s", got, err, want)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	n := ShardCount(spec, 1, 4)
	_, runErr := Run(context.Background(), spec, RunContext{})
	close(done)
	wg.Wait()
	if n != 2 {
		t.Errorf("ShardCount = %d, want 2 for the spec's 2 units", n)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
}
