package node

import (
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/channel"
	"github.com/sinet-io/sinet/internal/energy"
	"github.com/sinet-io/sinet/internal/mac"
	"github.com/sinet-io/sinet/internal/orbit"
)

var t0 = time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)

func testNode(policy mac.RetxPolicy) *Node {
	loc := orbit.NewGeodeticDeg(22.0, 101.0, 1.2)
	meter := energy.NewMeter(energy.TianqiProfile(), t0)
	return New("tq-1", loc, channel.FiveEighthsWave, policy, meter)
}

func TestSenseQueues(t *testing.T) {
	n := testNode(mac.DefaultRetxPolicy())
	if n.Pending() {
		t.Error("fresh node has pending data")
	}
	r1 := n.Sense(t0, 20)
	r2 := n.Sense(t0.Add(30*time.Minute), 20)
	if r1.SeqID == r2.SeqID {
		t.Error("sequence IDs not unique")
	}
	if len(n.queue) != 2 || n.Generated != 2 {
		t.Errorf("queue=%d generated=%d", len(n.queue), n.Generated)
	}
	if n.Head() != r1 {
		t.Error("head is not the oldest reading")
	}
}

func TestResolveHeadAcked(t *testing.T) {
	n := testNode(mac.DefaultRetxPolicy())
	r := n.Sense(t0, 20)
	r.Attempts = 1
	got := n.ResolveHead(true, t0.Add(time.Minute))
	if got != DeliveredAck {
		t.Errorf("completion = %v", got)
	}
	if r.AckedAt.IsZero() {
		t.Error("AckedAt not set")
	}
	if n.Delivered != 1 || len(n.queue) != 0 {
		t.Errorf("delivered=%d queue=%d", n.Delivered, len(n.queue))
	}
}

func TestResolveHeadRetryThenAbandon(t *testing.T) {
	policy := mac.RetxPolicy{MaxRetx: 2, AckTimeout: time.Second}
	n := testNode(policy)
	r := n.Sense(t0, 20)

	// Attempts 1 and 2 fail: reading stays queued.
	for attempt := 1; attempt <= 2; attempt++ {
		r.Attempts = attempt
		if got := n.ResolveHead(false, t0.Add(time.Duration(attempt)*time.Minute)); got != KeepRetrying {
			t.Fatalf("attempt %d: completion = %v, want retry", attempt, got)
		}
		if len(n.queue) != 1 {
			t.Fatalf("attempt %d: queue emptied prematurely", attempt)
		}
	}
	// Attempt 3 (the last allowed) fails: abandoned.
	r.Attempts = 3
	if got := n.ResolveHead(false, t0.Add(3*time.Minute)); got != Abandon {
		t.Fatalf("final completion = %v, want abandon", got)
	}
	if n.Abandoned != 1 || len(n.queue) != 0 {
		t.Errorf("abandoned=%d queue=%d", n.Abandoned, len(n.queue))
	}
}

func TestNoRetxAbandonsImmediately(t *testing.T) {
	n := testNode(mac.NoRetxPolicy())
	r := n.Sense(t0, 20)
	r.Attempts = 1
	if got := n.ResolveHead(false, t0.Add(time.Second)); got != Abandon {
		t.Errorf("no-retx completion = %v, want abandon", got)
	}
}

func TestResolveHeadEmptyQueue(t *testing.T) {
	n := testNode(mac.DefaultRetxPolicy())
	if got := n.ResolveHead(true, t0); got != KeepRetrying {
		t.Errorf("empty-queue resolve = %v", got)
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	n := testNode(mac.DefaultRetxPolicy())
	for i := 0; i < 5; i++ {
		n.Sense(t0.Add(time.Duration(i)*time.Minute), 20)
	}
	q := n.queue
	for i := 1; i < len(q); i++ {
		if q[i].SeqID <= q[i-1].SeqID {
			t.Fatal("queue not in generation order")
		}
	}
}

func TestCompletionString(t *testing.T) {
	if KeepRetrying.String() != "retry" || DeliveredAck.String() != "delivered" || Abandon.String() != "abandon" {
		t.Error("completion labels")
	}
	if Completion(9).String() != "Completion(9)" {
		t.Error("unknown completion label")
	}
	if testNode(mac.DefaultRetxPolicy()).String() == "" {
		t.Error("node String empty")
	}
}
