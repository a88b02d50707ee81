package core

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
	"time"

	"github.com/sinet-io/sinet/internal/lru"
	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/orbit"
)

// Memo holds the seed-independent geometry of finished campaign phases
// for later runs to reuse: propagated ephemeris grids, the TEME samples of
// trajectories seen at more than one start (orbit.Trajectory, which a grid
// of the trajectory at any start rotates instead of running SGP4), a
// routing topology's summary, and one window of a keyed checkpointable
// phase (forEachCheckpointed), the active plan or fault-free routing
// packets: a full phase's unit values, or a shard window's checkpoint
// bytes. Each entry is keyed by a hash of exactly the inputs it was
// computed from, so a hit returns the value a recomputation would
// produce, and results stay byte-identical by construction. Entries are
// immutable and shared by every run that hits them; they are evicted
// least-recently-used against a byte budget. A Memo is safe for
// concurrent use; a nil *Memo holds nothing and every campaign computes
// as it would without one.
type Memo struct {
	mu  sync.Mutex
	lru *lru.LRU[memoKey, any] // *orbit.EphemerisGrid, *orbit.Trajectory, orbitNote, topologySummary, []T or [][]byte

	hits, misses [len(memoKindNames)]*obs.Counter // by memoKind
	evictions    *obs.Counter
}

// memoKind names what a memo entry holds, for telemetry.
type memoKind int

const (
	kindGrid     memoKind = iota
	kindPlan              // active plan units
	kindTopology          // routing topology summary
	kindPackets           // routing packet units
	kindOrbit             // a trajectory's TEME samples, or its note
)

var memoKindNames = [...]string{"grid", "plan", "topology", "packets", "orbit"}

// orbitNote marks a trajectory propagated at one start: the next grid
// miss of the trajectory keeps its TEME samples and files them in the
// note's place. A trajectory seen at only one start so costs a note, not
// a second grid-sized entry.
type orbitNote struct{}

// orbitNoteBytes is a note's nominal size, so notes count against the
// budget.
const orbitNoteBytes = 64

// NewMemo returns an empty memo bounded to budget bytes. With a non-nil
// registry it exports
//
//	sinet_memo_hits_total{kind}    lookups answered from the memo ("grid", "plan", "topology", "packets", "orbit")
//	sinet_memo_misses_total{kind}  lookups that found no entry; an orbit lookup that finds a note is a miss
//	sinet_memo_evictions_total     entries evicted against the budget
//	sinet_memo_bytes               bytes of memoized geometry
//
// every series registered at zero.
func NewMemo(budget int64, r *obs.Registry) *Memo {
	m := &Memo{lru: lru.New[memoKey, any](budget)}
	if r == nil {
		return m
	}
	hits := r.CounterVec("sinet_memo_hits_total", "Geometry-memo lookups answered from memory, by entry kind.", "kind")
	misses := r.CounterVec("sinet_memo_misses_total", "Geometry-memo lookups that found no entry, by entry kind.", "kind")
	for k, name := range memoKindNames {
		m.hits[k], m.misses[k] = hits.With(name), misses.With(name)
	}
	m.evictions = r.Counter("sinet_memo_evictions_total", "Geometry-memo entries evicted against the byte budget.")
	r.GaugeFunc("sinet_memo_bytes", "Bytes of memoized campaign geometry.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.lru.Bytes())
	})
	return m
}

// get returns the entry under k, counting the lookup under kind. A note
// counts as a miss: the run that finds it still propagates.
func (m *Memo) get(k memoKey, kind memoKind) (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.lru.Get(k)
	if _, note := v.(orbitNote); ok && !note {
		m.hits[kind].Inc()
	} else {
		m.misses[kind].Inc()
	}
	return v, ok
}

// put files an entry of size bytes under k.
func (m *Memo) put(k memoKey, v any, size int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evictions.Add(uint64(m.lru.Put(k, v, size)))
}

// note files a note under k unless k holds an entry: samples a run of the
// trajectory filed meanwhile stay.
func (m *Memo) note(k memoKey) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.lru.Get(k); !ok {
		m.evictions.Add(uint64(m.lru.Put(k, orbitNote{}, orbitNoteBytes)))
	}
}

// memoKey is the SHA-256 of a memo entry's kind and inputs.
type memoKey [sha256.Size]byte

// keyInputs encodes the inputs of one memo entry. Floats encode by their
// bits and times by Unix seconds and nanoseconds, which cover the years
// 0–9999 a spec admits. A time outside UTC makes the entry unkeyable: its
// location reaches the result bytes (JSON times carry the zone offset),
// and the serving layer normalizes every time to UTC.
type keyInputs struct {
	kind memoKind
	buf  []byte
	utc  bool
}

func newKeyInputs(kind memoKind) *keyInputs {
	k := &keyInputs{kind: kind, utc: true}
	k.str(memoKindNames[kind])
	return k
}

func (k *keyInputs) int(v int64)     { k.buf = binary.LittleEndian.AppendUint64(k.buf, uint64(v)) }
func (k *keyInputs) float(v float64) { k.int(int64(math.Float64bits(v))) }

func (k *keyInputs) str(s string) {
	k.int(int64(len(s)))
	k.buf = append(k.buf, s...)
}

func (k *keyInputs) geodetic(g orbit.Geodetic) {
	k.float(g.Lat)
	k.float(g.Lon)
	k.float(g.Alt)
}

func (k *keyInputs) time(t time.Time) {
	k.utc = k.utc && t.Location() == time.UTC
	k.int(t.Unix())
	k.int(int64(t.Nanosecond()))
}

// grid encodes the inputs of orbit.NewEphemerisGrid(props, start, end, cfg):
// every element set field by field, the span and the config as passed.
func (k *keyInputs) grid(props []*orbit.Propagator, start, end time.Time, cfg orbit.EphemerisConfig) {
	k.time(start)
	k.time(end)
	k.int(int64(cfg.ScanStep))
	k.int(int64(cfg.SampleStep))
	k.float(cfg.MaxInterpErrorKm)
	exact := int64(0)
	if cfg.Exact {
		exact = 1
	}
	k.int(exact)
	k.int(int64(len(props)))
	for _, p := range props {
		e := p.Elements()
		k.int(int64(e.NoradID))
		k.str(e.Name)
		k.time(e.Epoch)
		for _, f := range [...]float64{e.BStar, e.Inclination, e.RAAN, e.Eccentricity, e.ArgPerigee, e.MeanAnomaly, e.MeanMotion} {
			k.float(f)
		}
	}
}

// sum returns the key, or false when the inputs are unkeyable.
func (k *keyInputs) sum() (memoKey, bool) {
	return sha256.Sum256(k.buf), k.utc
}

// gridKey keys the grid orbit.NewEphemerisGrid(props, start, end, cfg)
// builds.
func gridKey(props []*orbit.Propagator, start, end time.Time, cfg orbit.EphemerisConfig) (memoKey, bool) {
	k := newKeyInputs(kindGrid)
	k.grid(props, start, end, cfg)
	return k.sum()
}

// orbitKey keys the TEME samples of a grid of props from start with a
// calibrated step and steps samples per row: exactly what SGP4 reads
// (see orbit.Trajectory). Each element set encodes every field but its
// epoch, which enters as the offset of start from it, in whole seconds
// and nanoseconds, so offsets beyond a Duration's range stay exact. The
// grid's start, end and config enter only through the step and the
// count, and the key is keyable whatever the times' location.
func orbitKey(props []*orbit.Propagator, start time.Time, step time.Duration, steps int) memoKey {
	k := newKeyInputs(kindOrbit)
	k.int(int64(step))
	k.int(int64(steps))
	k.int(int64(len(props)))
	for _, p := range props {
		e := p.Elements()
		k.int(int64(e.NoradID))
		k.str(e.Name)
		sec, nsec := start.Unix()-e.Epoch.Unix(), start.Nanosecond()-e.Epoch.Nanosecond()
		if nsec < 0 {
			sec, nsec = sec-1, nsec+1e9
		}
		k.int(sec)
		k.int(int64(nsec))
		for _, f := range [...]float64{e.BStar, e.Inclination, e.RAAN, e.Eccentricity, e.ArgPerigee, e.MeanAnomaly, e.MeanMotion} {
			k.float(f)
		}
	}
	key, _ := k.sum()
	return key
}

// timeBytes is the size of a time.Time value.
const timeBytes = 24

// valuesBytes approximates the memory a full phase's units hold, for
// units that count it with a valueBytes method.
func valuesBytes[T any](vals []T) int64 {
	var n int64
	for i := range vals {
		if v, ok := any(&vals[i]).(interface{ valueBytes() int64 }); ok {
			n += v.valueBytes()
		}
	}
	return n
}
