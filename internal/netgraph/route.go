package netgraph

import (
	"math"
	"time"
)

// heapItem is one priority-queue entry.
type heapItem struct {
	node int32
	cost float64
}

// before orders items by (cost, node): the node breaks ties
// deterministically.
func (a heapItem) before(b heapItem) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return a.node < b.node
}

// minHeap is a binary min-heap of values: pushing and popping never box an
// item, so a search allocates nothing per queue operation.
type minHeap []heapItem

func (h *minHeap) push(x heapItem) {
	*h = append(*h, x)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
}

func (h *minHeap) pop() heapItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	x := q[n]
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(x) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = x
	return top
}

// Hop is one edge traversal of a delivered path, tagged with the snapshot
// it was traversed at so validity can be re-checked against that
// snapshot's predicates.
type Hop struct {
	From, To int32
	Snapshot int32
}

// Delivery is the outcome of an earliest-delivery search.
type Delivery struct {
	At      time.Time // arrival at the station, including per-hop delays
	Station int       // station index within the graph's station set
	Path    []Hop     // traversed edges, origin first
}

// Hops returns the number of edges traversed.
func (d Delivery) Hops() int { return len(d.Path) }

// ISLHops returns the number of satellite–satellite edges traversed.
func (d Delivery) ISLHops(g *Graph) int {
	n := 0
	for _, h := range d.Path {
		if !g.IsStation(int(h.From)) && !g.IsStation(int(h.To)) {
			n++
		}
	}
	return n
}

// DeliverySearch runs time-expanded earliest-delivery queries: given a
// packet sitting on a satellite at an origin instant, find the earliest
// time it can reach any ground station, choosing freely at every snapshot
// between storing on board (waiting for the next snapshot) and forwarding
// over any live edge. With no ISLs live this degrades exactly to
// store-and-forward: the packet waits until a direct downlink edge
// appears. Not safe for concurrent use; create one per worker.
type DeliverySearch struct {
	g        *Graph
	arrival  []float64 // seconds since graph start; +Inf unreached
	prevNode []int32
	prevSnap []int32
	pq       minHeap
	settled  []bool
	touched  []int32 // nodes dirtied since Reset, for O(touched) cleanup
}

// NewDeliverySearch creates a search over g.
func NewDeliverySearch(g *Graph) *DeliverySearch {
	n := g.Nodes()
	s := &DeliverySearch{
		g:        g,
		arrival:  make([]float64, n),
		prevNode: make([]int32, n),
		prevSnap: make([]int32, n),
		settled:  make([]bool, n),
	}
	for i := range s.arrival {
		s.arrival[i] = math.Inf(1)
		s.prevNode[i] = -1
		s.prevSnap[i] = -1
	}
	return s
}

// reset clears only the state dirtied by the previous query.
func (s *DeliverySearch) reset() {
	for _, v := range s.touched {
		s.arrival[v] = math.Inf(1)
		s.prevNode[v] = -1
		s.prevSnap[v] = -1
		s.settled[v] = false
	}
	s.touched = s.touched[:0]
}

// Earliest finds the earliest delivery of a packet originating on
// satellite sat at origin. ok is false when no station is reachable
// within the graph's span.
func (s *DeliverySearch) Earliest(sat int, origin time.Time) (Delivery, bool) {
	g := s.g
	s.reset()
	t0 := origin.Sub(g.start).Seconds()
	if t0 < 0 {
		t0 = 0
	}
	s.arrival[sat] = t0
	s.touched = append(s.touched, int32(sat))

	step := g.cfg.SnapshotStep.Seconds()
	best := math.Inf(1)
	bestNode := -1
	firstK := g.SnapshotFor(origin)
	for k := firstK; k < len(g.snaps); k++ {
		snap := &g.snaps[k]
		tk := float64(k) * step
		tkNext := tk + step
		// A station arrival no later than this snapshot's start cannot be
		// beaten by any later departure.
		if best <= tk {
			break
		}
		// Seed a Dijkstra over this snapshot's live edges with every node
		// the packet can occupy before the snapshot expires; departures
		// wait on board until the snapshot opens.
		s.pq = s.pq[:0]
		for _, v := range s.touched {
			s.settled[v] = false
			if a := s.arrival[v]; a < tkNext {
				dep := a
				if dep < tk {
					dep = tk
				}
				s.pq.push(heapItem{node: v, cost: dep})
			}
		}
		if len(s.pq) > 0 {
			observeRoute()
		}
		for len(s.pq) > 0 {
			it := s.pq.pop()
			v := int(it.node)
			if s.settled[v] {
				continue
			}
			s.settled[v] = true
			if g.IsStation(v) {
				if it.cost < best {
					best = it.cost
					bestNode = v
				}
				continue // stations terminate the packet
			}
			for e := snap.offsets[v]; e < snap.offsets[v+1]; e++ {
				u := int(snap.nbr[e])
				c := it.cost + snap.delay[e]
				if c < s.arrival[u] {
					if math.IsInf(s.arrival[u], 1) {
						s.touched = append(s.touched, int32(u))
					}
					s.arrival[u] = c
					s.prevNode[u] = int32(v)
					s.prevSnap[u] = int32(k)
					s.pq.push(heapItem{node: snap.nbr[e], cost: c})
				}
			}
		}
	}
	if bestNode < 0 {
		return Delivery{}, false
	}
	d := Delivery{
		At:      g.start.Add(time.Duration(best * float64(time.Second))),
		Station: g.Station(bestNode),
	}
	// Walk back from the station twice: once to size the path, once to
	// fill it origin first.
	hops := 0
	for v := int32(bestNode); s.prevNode[v] >= 0; v = s.prevNode[v] {
		hops++
	}
	d.Path = make([]Hop, hops)
	for v := int32(bestNode); s.prevNode[v] >= 0; v = s.prevNode[v] {
		hops--
		d.Path[hops] = Hop{From: s.prevNode[v], To: v, Snapshot: s.prevSnap[v]}
	}
	return d, true
}
