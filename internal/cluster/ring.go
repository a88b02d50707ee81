// Package cluster scales the campaign-serving daemon horizontally: a
// coordinator consistent-hashes content-addressed jobs onto a ring of
// sinetd workers, splits oversized campaigns into deterministic shards
// fanned across the fleet, fills caches from the key's ring owner, and
// aggregates worker telemetry into one cluster-wide scrape. Everything
// rides the service layer's contracts — equal ConfigKeys mean equal
// result bytes, and shard merge equals an unsharded run byte for byte —
// so adding machines never changes what a campaign returns.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"
)

// DefaultVNodes is the virtual-node count per peer: enough points that
// 3–16 peers split the key space within a few percent of even, cheap
// enough that ring construction stays microseconds.
const DefaultVNodes = 128

// loadFactor is the coordinator's bounded-load placement factor
// (OwnerBounded): a peer carrying more than 1.25× the mean in-flight load
// sheds the key to the next peer in its ring sequence.
const loadFactor = 1.25

// Ring consistent-hashes keys onto peers. Each peer projects VNodes
// points onto a 64-bit circle; a key belongs to the peer owning the
// first point at or clockwise of the key's hash. Peers joining or
// leaving therefore move only the keys in the arcs they gain or lose —
// about 1/n of the space — instead of reshuffling everything, which is
// what keeps worker caches warm across membership changes. A Ring is
// immutable and safe for concurrent use; membership changes build a new
// one with NewRing.
type Ring struct {
	peers  []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	peer int // index into peers
}

// NewRing builds a ring over the peers (order-insensitive: points depend
// only on peer identity) with the given virtual-node count per peer
// (<= 0 uses DefaultVNodes).
func NewRing(peers []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{peers: append([]string(nil), peers...)}
	r.points = make([]ringPoint, 0, len(peers)*vnodes)
	var buf [8]byte
	for pi, p := range r.peers {
		for v := 0; v < vnodes; v++ {
			binary.BigEndian.PutUint64(buf[:], uint64(v))
			h := sha256.New()
			h.Write([]byte(p))
			h.Write([]byte{'#'})
			h.Write(buf[:])
			sum := h.Sum(nil)
			r.points = append(r.points, ringPoint{hash: binary.BigEndian.Uint64(sum[:8]), peer: pi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return r.peers[a.peer] < r.peers[b.peer] // total order even on hash ties
	})
	return r
}

// Peers returns the ring's membership.
func (r *Ring) Peers() []string { return r.peers }

// hashKey maps a key onto the circle.
func hashKey(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Owner returns the peer owning the key, or "" for an empty ring.
func (r *Ring) Owner(key string) string {
	seq := r.Sequence(key)
	if len(seq) == 0 {
		return ""
	}
	return seq[0]
}

// Sequence returns every peer in ring order starting from the key's
// owner, each peer once: the owner first, then the failover order a
// coordinator walks when the owner is down.
func (r *Ring) Sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seq := make([]string, 0, len(r.peers))
	seen := make([]bool, len(r.peers))
	for i := 0; i < len(r.points) && len(seq) < len(r.peers); i++ {
		pt := r.points[(start+i)%len(r.points)]
		if !seen[pt.peer] {
			seen[pt.peer] = true
			seq = append(seq, r.peers[pt.peer])
		}
	}
	return seq
}

// OwnerBounded is Owner with bounded load (the "consistent hashing with
// bounded loads" policy): the key goes to the first peer in its sequence
// whose current load is under factor times the mean, so one hot key
// range cannot pile arbitrarily onto one worker. loadOf reports a peer's
// in-flight work; factor <= 1 (or a nil loadOf) disables the bound. If
// every peer is over the bound the owner wins — the bound sheds skew,
// never availability.
func (r *Ring) OwnerBounded(key string, loadOf func(peer string) int, factor float64) string {
	seq := r.Sequence(key)
	if len(seq) == 0 {
		return ""
	}
	if factor <= 1 || loadOf == nil {
		return seq[0]
	}
	total := 0
	for _, p := range r.peers {
		total += loadOf(p)
	}
	bound := int(math.Ceil(factor * float64(total+1) / float64(len(r.peers))))
	for _, p := range seq {
		if loadOf(p) < bound {
			return p
		}
	}
	return seq[0]
}
