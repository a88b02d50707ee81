package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
)

// BenchmarkConfigKey measures the full admission-path canonicalization:
// normalize a sparse spec, validate it, and hash the canonical form. This
// runs once per submission, cache hit or not, so it bounds submit latency.
func BenchmarkConfigKey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := &JobSpec{Kind: KindPassive, Passive: &PassiveSpec{Seed: 7}}
		if _, err := ConfigKey(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConfigKeyNormalized measures re-keying an already-canonical
// spec — the marginal cost when the caller retains the normalized form.
func BenchmarkConfigKeyNormalized(b *testing.B) {
	spec := &JobSpec{Kind: KindPassive, Passive: &PassiveSpec{Seed: 7}}
	if _, err := ConfigKey(spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ConfigKey(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheHit measures a warm lookup on a populated cache — the cost
// a repeated submission pays instead of a simulation.
func BenchmarkCacheHit(b *testing.B) {
	c := NewCache(64 << 20)
	data := bytes.Repeat([]byte("r"), 24<<10) // ~a passive-result payload
	var keys []Key
	for i := 0; i < 256; i++ {
		k := Key(fmt.Sprintf("%064d", i))
		keys = append(keys, k)
		c.Put(k, data)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(keys[i%len(keys)]); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkSplitFold measures the coordinator's own work around a
// two-shard routing campaign: SplitSpec deriving the shard sub-specs,
// then FoldShards decoding the two shard results into one resume point.
// The shard runs themselves happen once, before the timer starts.
func BenchmarkSplitFold(b *testing.B) {
	var parent JobSpec
	if err := json.Unmarshal([]byte(`{"kind":"routing","routing":{"seed":3,"packet_interval":"2h"}}`), &parent); err != nil {
		b.Fatal(err)
	}
	if err := parent.Normalize(); err != nil {
		b.Fatal(err)
	}
	shards, err := SplitSpec(&parent, 2)
	if err != nil {
		b.Fatal(err)
	}
	blobs := make([][]byte, len(shards))
	for i, sub := range shards {
		res, err := Run(context.Background(), sub, RunContext{})
		if err != nil {
			b.Fatal(err)
		}
		if blobs[i], err = MarshalResult(res); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(blobs[0]) + len(blobs[1])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SplitSpec(&parent, 2); err != nil {
			b.Fatal(err)
		}
		if _, err := FoldShards(blobs); err != nil {
			b.Fatal(err)
		}
	}
}
