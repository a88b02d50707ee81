// Package node models a battery-powered satellite IoT end device (the
// paper's "Tianqi node"): a sensor generating periodic readings into a
// local store-and-forward buffer, a beacon-gated uplink state machine with
// ACK-driven retransmissions, and an energy meter tracking the sleep/rx/tx
// duty cycle that Figure 6 measures.
package node

import (
	"fmt"
	"time"

	"github.com/sinet-io/sinet/internal/channel"
	"github.com/sinet-io/sinet/internal/energy"
	"github.com/sinet-io/sinet/internal/mac"
	"github.com/sinet-io/sinet/internal/orbit"
)

// Reading is one sensor sample waiting for uplink.
type Reading struct {
	SeqID        uint64
	PayloadBytes int
	GeneratedAt  time.Time
	// Attempts counts transmissions performed so far.
	Attempts int
	// UplinkedAt is when the satellite first decoded this reading (zero
	// until then). Retransmissions after this point are "unnecessary" in
	// the paper's Fig. 5b sense.
	UplinkedAt time.Time
	// AckedAt is when the node received an ACK (zero until then).
	AckedAt time.Time
}

// Node is one deployed satellite IoT end device.
type Node struct {
	ID       string
	Location orbit.Geodetic
	Antenna  channel.Antenna
	Policy   mac.RetxPolicy
	Meter    *energy.Meter

	// TxPowerDBm is the uplink transmit power (DtS requires maximum
	// output; the Tianqi node drives ~22 dBm into the whip).
	TxPowerDBm float64

	// queue holds readings not yet acknowledged or abandoned, FIFO.
	queue []*Reading

	// Counters.
	Generated int
	Delivered int // ACK received
	Abandoned int // retransmission budget exhausted
	nextSeq   uint64
}

// New creates a node at the given location.
func New(id string, loc orbit.Geodetic, ant channel.Antenna, policy mac.RetxPolicy, meter *energy.Meter) *Node {
	return &Node{
		ID:         id,
		Location:   loc,
		Antenna:    ant,
		Policy:     policy,
		Meter:      meter,
		TxPowerDBm: 22,
	}
}

// String implements fmt.Stringer.
func (n *Node) String() string {
	return fmt.Sprintf("node %s (queue %d, delivered %d/%d)", n.ID, len(n.queue), n.Delivered, n.Generated)
}

// Sense generates a new reading of payloadBytes at time at and queues it.
func (n *Node) Sense(at time.Time, payloadBytes int) *Reading {
	r := &Reading{
		SeqID:        n.nextSeq,
		PayloadBytes: payloadBytes,
		GeneratedAt:  at,
	}
	n.nextSeq++
	n.Generated++
	n.queue = append(n.queue, r)
	return r
}

// Pending reports whether any reading awaits uplink.
func (n *Node) Pending() bool { return len(n.queue) > 0 }

// Head returns the oldest un-acknowledged reading, or nil.
func (n *Node) Head() *Reading {
	if len(n.queue) == 0 {
		return nil
	}
	return n.queue[0]
}

// CompleteHead resolves the head reading after an attempt cycle: acked
// marks delivery; otherwise the retransmission policy decides between
// retry (reading stays queued) and abandonment. It returns the action
// taken.
type Completion int

// Completion outcomes.
const (
	// KeepRetrying leaves the reading queued for the next beacon.
	KeepRetrying Completion = iota
	// DeliveredAck removes the reading: the ACK arrived.
	DeliveredAck
	// Abandon removes the reading: the retx budget is exhausted.
	Abandon
)

// String implements fmt.Stringer.
func (c Completion) String() string {
	switch c {
	case KeepRetrying:
		return "retry"
	case DeliveredAck:
		return "delivered"
	case Abandon:
		return "abandon"
	default:
		return fmt.Sprintf("Completion(%d)", int(c))
	}
}

// ResolveHead applies the outcome of the head reading's latest attempt.
func (n *Node) ResolveHead(acked bool, at time.Time) Completion {
	r := n.Head()
	if r == nil {
		return KeepRetrying
	}
	if acked {
		r.AckedAt = at
		n.queue = n.queue[1:]
		n.Delivered++
		return DeliveredAck
	}
	if !n.Policy.ShouldRetry(r.Attempts - 1) {
		n.queue = n.queue[1:]
		n.Abandoned++
		return Abandon
	}
	return KeepRetrying
}
