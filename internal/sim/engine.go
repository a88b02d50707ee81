// Package sim provides the deterministic discrete-event simulation engine
// underpinning SINet's measurement campaigns: a virtual clock, a binary-heap
// event scheduler, and named seeded RNG streams so every experiment is
// exactly reproducible from its seed.
package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"
)

// entry is one queued instant: a single event's callback, or the next
// instant of a series. seq breaks ties so simultaneous instants fire in
// scheduling order, keeping runs deterministic.
type entry struct {
	at   time.Time
	seq  uint64
	fire func(*Engine)
	s    *series
}

// before orders entries by (at, seq); seqs are unique, so the order is
// total and the firing order never depends on the heap's layout.
func (a *entry) before(b *entry) bool {
	if c := a.at.Compare(b.at); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

// series is the unfired tail of a ScheduleEach call. Only its next
// instant is queued; the one after is queued when that instant fires.
type series struct {
	times []time.Time
	// seqs holds the seq reserved for times[i] when the input needed
	// sorting; nil means times kept slice order, so times[i] has base+i.
	seqs []uint64
	base uint64
	next int
	fn   func(*Engine, time.Time)
}

// head returns the series' next unfired instant as a queue entry.
func (s *series) head() entry {
	seq := s.base + uint64(s.next)
	if s.seqs != nil {
		seq = s.seqs[s.next]
	}
	return entry{at: s.times[s.next], seq: seq, s: s}
}

// ErrPastEvent is returned when scheduling before the current virtual time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; campaigns that want parallelism run independent engines.
type Engine struct {
	now     time.Time
	queue   []entry // binary min-heap by (at, seq)
	pending int     // unfired instants, queued or waiting in a series
	nextSeq uint64
	stopped bool

	// Processed counts fired events, exposed for ablation benchmarks.
	Processed uint64
}

// NewEngine creates an engine whose clock starts at start.
func NewEngine(start time.Time) *Engine {
	return &Engine{now: start}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return e.now }

// Schedule enqueues fn to run at the absolute virtual time at. Scheduling
// in the past is an error; scheduling exactly "now" is allowed and fires
// after the current handler returns.
func (e *Engine) Schedule(at time.Time, fn func(*Engine)) error {
	if at.Before(e.now) {
		return fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, e.now)
	}
	e.push(entry{at: at, seq: e.nextSeq, fire: fn})
	e.nextSeq++
	e.pending++
	return nil
}

// ScheduleEach schedules fn(e, t) at every instant t of times, firing
// exactly as a loop calling Schedule once per instant, in slice order,
// would: it reserves one sequence number per instant in that order, and
// unsorted input is stable-sorted by time with each instant keeping its
// reserved number. Only the series' next instant is queued, and the one
// after it when it fires, so a series costs one queue entry however long
// it is. The order is still the eager one because a series fires in
// (time, seq) order and its next instant is always queued, so the queue
// head is the one a queue of every instant would have. times is only
// read and must not change until the series has fired. An instant
// before Now returns ErrPastEvent and schedules nothing.
func (e *Engine) ScheduleEach(times []time.Time, fn func(*Engine, time.Time)) error {
	if len(times) == 0 {
		return nil
	}
	s := &series{times: times, base: e.nextSeq, fn: fn}
	if !slices.IsSortedFunc(times, time.Time.Compare) {
		order := make([]int, len(times))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return times[a].Compare(times[b]) })
		s.times = make([]time.Time, len(times))
		s.seqs = make([]uint64, len(times))
		for i, j := range order {
			s.times[i], s.seqs[i] = times[j], s.base+uint64(j)
		}
	}
	if first := s.times[0]; first.Before(e.now) {
		return fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, first, e.now)
	}
	e.nextSeq += uint64(len(times))
	e.pending += len(times)
	e.push(s.head())
	return nil
}

// Stop halts the run loop after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of unfired events, counting every instant
// of a series.
func (e *Engine) Pending() int { return e.pending }

// Run fires events in time order until the queue drains, Stop is called, or
// the clock passes end. The clock is left at the time of the last fired
// event (or end, whichever is earlier).
func (e *Engine) Run(end time.Time) {
	_ = e.RunCtx(context.Background(), end)
}

// RunCtx is Run with cooperative cancellation: the context is checked
// before every event fires, so a cancelled campaign aborts within one event
// and returns ctx.Err() with the queue intact and the clock at the last
// fired event. A nil error means the run completed (drain, Stop, or
// horizon) without cancellation.
func (e *Engine) RunCtx(ctx context.Context, end time.Time) error {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		if err := ctx.Err(); err != nil {
			return err
		}
		if e.queue[0].at.After(end) {
			e.now = end
			return nil
		}
		e.fireNext()
	}
	if !e.stopped && e.now.Before(end) {
		e.now = end
	}
	return ctx.Err()
}

// RunAll fires every queued event regardless of horizon. Useful for tests.
func (e *Engine) RunAll() {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		e.fireNext()
	}
}

// fireNext dequeues the earliest instant, queues its series' following
// instant in its place, advances the clock and fires it.
func (e *Engine) fireNext() {
	ev := e.queue[0]
	if s := ev.s; s != nil && s.next+1 < len(s.times) {
		s.next++
		e.queue[0] = s.head()
	} else {
		last := len(e.queue) - 1
		e.queue[0] = e.queue[last]
		e.queue[last] = entry{} // drop the callback and series references
		e.queue = e.queue[:last]
	}
	e.down()
	e.now = ev.at
	e.pending--
	e.Processed++
	if ev.s != nil {
		ev.s.fn(e, ev.at)
	} else {
		ev.fire(e)
	}
}

// push adds x to the heap.
func (e *Engine) push(x entry) {
	e.queue = append(e.queue, x)
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
}

// down restores heap order after the root grew.
func (e *Engine) down() {
	q := e.queue
	n := len(q)
	if n == 0 {
		return
	}
	i, x := 0, q[0]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&x) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = x
}
