// Package satellite models the orbiting IoT gateway of a DtS system: a
// LEO satellite that broadcasts beacons, receives node uplinks, stores
// packets in a finite store-and-forward buffer, and downlinks the buffer
// when it passes over an operator ground station. Buffer pressure and
// drops model the "satellite resource constraints" the paper lists among
// DtS loss causes.
package satellite

import (
	"fmt"
	"time"

	"github.com/sinet-io/sinet/internal/orbit"
)

// StoredPacket is one uplinked IoT packet held on board.
type StoredPacket struct {
	NodeID       string
	SeqID        uint64
	PayloadBytes int
	// SentAt is when the node generated/transmitted the packet.
	SentAt time.Time
	// ReceivedAt is when the satellite decoded the uplink.
	ReceivedAt time.Time
	// Attempt is the uplink attempt index that succeeded.
	Attempt int
}

// Buffer is the on-board store-and-forward queue.
type Buffer struct {
	capacity int
	queue    []StoredPacket

	// Dropped counts packets rejected because the buffer was full.
	Dropped int
	// Stored counts total packets accepted.
	Stored int
}

// NewBuffer creates a buffer holding up to capacity packets. A zero or
// negative capacity means unbounded.
func NewBuffer(capacity int) *Buffer {
	return &Buffer{capacity: capacity}
}

// Len returns the number of queued packets.
func (b *Buffer) Len() int { return len(b.queue) }

// Capacity returns the configured capacity (0 = unbounded).
func (b *Buffer) Capacity() int { return b.capacity }

// Push stores a packet, reporting false (and counting a drop) when full.
func (b *Buffer) Push(p StoredPacket) bool {
	if b.capacity > 0 && len(b.queue) >= b.capacity {
		b.Dropped++
		return false
	}
	b.queue = append(b.queue, p)
	b.Stored++
	return true
}

// Flush removes and returns every queued packet (FIFO order).
func (b *Buffer) Flush() []StoredPacket {
	out := b.queue
	b.queue = nil
	return out
}

// Gateway is one satellite acting as an IoT gateway.
//
// A Gateway's orbital source may be a raw propagator or a shared
// ephemeris view; position queries through either are goroutine-safe.
// The Buffer is not: campaign workers that push or flush packets must
// own their gateway exclusively. Read-only uses (AppendBeaconTimes,
// GeometryAt, AltitudeAt) may share one gateway across workers.
type Gateway struct {
	NoradID int
	Name    string
	Src     orbit.StateSource
	Buffer  *Buffer

	// epoch anchors the beacon grid; cached so the hot beacon path does
	// not rebuild the element set per call.
	epoch time.Time

	// BeaconInterval is the gateway's beacon period.
	BeaconInterval time.Duration
	// AckTurnaround is the gap between decoding an uplink and transmitting
	// the ACK.
	AckTurnaround time.Duration
}

// NewGateway wraps an orbital state source — a raw SGP4 propagator or a
// shared ephemeris — as a gateway with the given buffer size.
func NewGateway(src orbit.StateSource, beaconInterval time.Duration, bufferCapacity int) *Gateway {
	els := src.Elements()
	return &Gateway{
		NoradID:        els.NoradID,
		Name:           els.Name,
		Src:            src,
		epoch:          els.Epoch,
		Buffer:         NewBuffer(bufferCapacity),
		BeaconInterval: beaconInterval,
		AckTurnaround:  500 * time.Millisecond,
	}
}

// String implements fmt.Stringer.
func (g *Gateway) String() string {
	return fmt.Sprintf("gateway %s (NORAD %d, buffer %d/%d)", g.Name, g.NoradID, g.Buffer.Len(), g.Buffer.Capacity())
}

// AppendBeaconTimes appends the beacon emission instants within
// [start, end) to dst and returns the extended slice. Campaign loops that
// walk thousands of passes reuse one buffer (dst[:0]) so steady-state
// beacon enumeration performs zero allocations.
func (g *Gateway) AppendBeaconTimes(dst []time.Time, start, end time.Time) []time.Time {
	if !end.After(start) || g.BeaconInterval <= 0 {
		return dst
	}
	offset := start.Sub(g.epoch)
	// First beacon at or after start.
	n := offset / g.BeaconInterval
	first := g.epoch.Add(n * g.BeaconInterval)
	for first.Before(start) {
		first = first.Add(g.BeaconInterval)
	}
	for t := first; t.Before(end); t = t.Add(g.BeaconInterval) {
		dst = append(dst, t)
	}
	return dst
}

// GeometryAt returns the look geometry from a ground point, given as its
// observer frame (built once per site with orbit.NewObserver), to the
// gateway at time t.
func (g *Gateway) GeometryAt(site orbit.Observer, t time.Time) (orbit.LookAngles, error) {
	r, v, err := g.Src.PositionECEF(t)
	if err != nil {
		return orbit.LookAngles{}, err
	}
	return site.Look(r, v), nil
}

// AltitudeAt returns the satellite altitude at t.
func (g *Gateway) AltitudeAt(t time.Time) (float64, error) {
	r, _, err := g.Src.PositionECEF(t)
	if err != nil {
		return 0, err
	}
	return orbit.GeodeticFromECEF(r).Alt, nil
}
