package service

import (
	"sync"

	"github.com/sinet-io/sinet/internal/lru"
	"github.com/sinet-io/sinet/internal/obs"
)

// Cache is the content-addressed result cache: serialized campaign results
// keyed by ConfigKey, evicted least-recently-used against a byte budget.
// Entries are immutable once stored (callers must not mutate returned
// slices), so hits are zero-copy. Safe for concurrent use.
type Cache struct {
	mu  sync.Mutex
	lru *lru.LRU[Key, []byte]

	hits, misses, evictions uint64

	// Optional telemetry mirrors of the counters above, nil until
	// instrument installs them. Nil-safe obs methods keep Get/Put
	// branch-free and allocation-free when telemetry is off.
	mHits, mMisses, mEvictions *obs.Counter
}

// NewCache creates a cache bounded to budget bytes of stored results.
// A budget <= 0 yields a disabled cache: every Get misses, every Put is
// dropped — the configuration the golden smoke test runs under.
func NewCache(budget int64) *Cache {
	return &Cache{lru: lru.New[Key, []byte](budget)}
}

// Get returns the cached result bytes for key, marking it recently used.
func (c *Cache) Get(key Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, ok := c.lru.Get(key)
	if !ok {
		c.misses++
		c.mMisses.Inc()
		return nil, false
	}
	c.hits++
	c.mHits.Inc()
	return data, true
}

// Put stores the result bytes under key, evicting least-recently-used
// entries until the byte budget holds. An entry larger than the whole
// budget is not stored at all (it would evict everything for one tenant),
// and re-putting an existing key refreshes its recency: the key is a
// content address, so the bytes and their size stay the same.
func (c *Cache) Put(key Key, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.lru.Put(key, data, int64(len(data)))
	c.evictions += uint64(n)
	c.mEvictions.Add(uint64(n))
}

// instrument registers the cache's telemetry into r: hit/miss/eviction
// counters plus size gauges sampled from the authoritative fields at
// scrape time. Call before the cache sees traffic (New does); the
// internal uint64 counters stay the source of truth for Stats.
func (c *Cache) instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	c.mu.Lock()
	c.mHits = r.Counter("sinet_cache_hits_total", "Result-cache lookups answered from memory.")
	c.mMisses = r.Counter("sinet_cache_misses_total", "Result-cache lookups that required a simulation.")
	c.mEvictions = r.Counter("sinet_cache_evictions_total", "Result-cache entries evicted against the byte budget.")
	c.mu.Unlock()
	r.GaugeFunc("sinet_cache_bytes", "Bytes of cached campaign results.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.lru.Bytes())
	})
	r.GaugeFunc("sinet_cache_entries", "Cached campaign results.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.lru.Len())
	})
}

// CacheStats is a point-in-time cache health snapshot.
type CacheStats struct {
	Entries     int     `json:"entries"`
	Bytes       int64   `json:"bytes"`
	BudgetBytes int64   `json:"budget_bytes"`
	Hits        uint64  `json:"hits"`
	Misses      uint64  `json:"misses"`
	Evictions   uint64  `json:"evictions"`
	HitRate     float64 `json:"hit_rate"`
}

// Stats returns current counters. HitRate is 0 (not NaN) before the first
// lookup, so the stats endpoint always serializes cleanly.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Entries:     c.lru.Len(),
		Bytes:       c.lru.Bytes(),
		BudgetBytes: c.lru.Budget(),
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
	}
	if total := c.hits + c.misses; total > 0 {
		s.HitRate = float64(c.hits) / float64(total)
	}
	return s
}
