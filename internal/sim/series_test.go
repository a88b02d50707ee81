package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// scheduleEachRef is the reference ScheduleEach: one Schedule call per
// instant, in slice order, after the same past check.
func scheduleEachRef(e *Engine, times []time.Time, fn func(*Engine, time.Time)) error {
	for _, at := range times {
		if at.Before(e.Now()) {
			return ErrPastEvent
		}
	}
	for _, at := range times {
		if err := e.Schedule(at, func(e *Engine) { fn(e, at) }); err != nil {
			return err
		}
	}
	return nil
}

// Actions a firing can take.
const (
	actNone = iota
	actSingle
	actSeries
	actStop
	actCancel
)

// scriptOp schedules one single event (offsets of length 1) or one series
// at whole-second offsets, from the start or, for actions, from Now.
type scriptOp struct {
	series  bool
	offsets []int
}

type scriptAction struct {
	kind int
	op   scriptOp
}

// engineScript is a random mix of single events and series: the
// operations scheduled before the run, the action taken by the k-th log
// line's firing, and the horizons of successive RunCtx calls.
type engineScript struct {
	ops     []scriptOp
	actions []scriptAction
	ends    []int
}

// randomOp draws offsets from a narrow range so instants tie often,
// across series and single events alike. Series come unsorted, empty or
// holding a past instant now and then.
func randomOp(rng *rand.Rand, minOffset int) scriptOp {
	if rng.Intn(3) == 0 {
		return scriptOp{offsets: []int{minOffset + 1 + rng.Intn(12)}}
	}
	offsets := make([]int, rng.Intn(7))
	at := 0
	for i := range offsets {
		at += rng.Intn(3)
		offsets[i] = at
	}
	if rng.Intn(3) == 0 {
		rng.Shuffle(len(offsets), func(i, j int) { offsets[i], offsets[j] = offsets[j], offsets[i] })
	}
	if len(offsets) > 0 && rng.Intn(8) == 0 {
		offsets[rng.Intn(len(offsets))] = minOffset // in the past
	}
	for i := range offsets {
		if offsets[i] != minOffset {
			offsets[i] += 1 + rng.Intn(2)
		}
	}
	return scriptOp{series: true, offsets: offsets}
}

func randomScript(rng *rand.Rand) engineScript {
	var s engineScript
	for i := rng.Intn(8) + 1; i > 0; i-- {
		s.ops = append(s.ops, randomOp(rng, -1))
	}
	for i := 0; i < 60; i++ {
		a := scriptAction{kind: actNone}
		switch r := rng.Intn(20); {
		case r < 3:
			a = scriptAction{kind: actSingle, op: scriptOp{offsets: []int{rng.Intn(4)}}}
		case r < 5:
			a = scriptAction{kind: actSeries, op: randomOp(rng, -2)}
		case r < 6:
			a.kind = actStop
		case r < 7:
			a.kind = actCancel
		}
		s.actions = append(s.actions, a)
	}
	for end := 0; end < 20; {
		end += 1 + rng.Intn(8)
		s.ends = append(s.ends, end)
	}
	return s
}

// run plays the script and returns its log: every scheduling result and
// firing with the engine's Now, Processed and Pending, and the state after
// each RunCtx. lazy schedules series through ScheduleEach, otherwise
// through scheduleEachRef.
func (s engineScript) run(lazy bool) []string {
	e := NewEngine(t0)
	var log []string
	cancel := func() {}
	var schedule func(label string, op scriptOp, from time.Time)
	fire := func(label string) func(*Engine, time.Time) {
		return func(e *Engine, at time.Time) {
			k := len(log)
			log = append(log, fmt.Sprintf("fire %s at %s now=%s processed=%d pending=%d",
				label, at.Sub(t0), e.Now().Sub(t0), e.Processed, e.Pending()))
			if k >= len(s.actions) {
				return
			}
			switch a := s.actions[k]; a.kind {
			case actSingle, actSeries:
				schedule(fmt.Sprintf("%s>%d", label, k), a.op, e.Now())
			case actStop:
				e.Stop()
			case actCancel:
				cancel()
			}
		}
	}
	schedule = func(label string, op scriptOp, from time.Time) {
		times := make([]time.Time, len(op.offsets))
		for i, off := range op.offsets {
			times[i] = from.Add(time.Duration(off) * time.Second)
		}
		var err error
		switch {
		case !op.series:
			f, at := fire(label), times[0]
			err = e.Schedule(at, func(e *Engine) { f(e, at) })
		case lazy:
			err = e.ScheduleEach(times, fire(label))
		default:
			err = scheduleEachRef(e, times, fire(label))
		}
		log = append(log, fmt.Sprintf("schedule %s %v: past=%v pending=%d",
			label, op.offsets, errors.Is(err, ErrPastEvent), e.Pending()))
	}
	for i, op := range s.ops {
		schedule(fmt.Sprint(i), op, t0)
	}
	for _, end := range s.ends {
		ctx, c := context.WithCancel(context.Background())
		cancel = c
		err := e.RunCtx(ctx, t0.Add(time.Duration(end)*time.Second))
		c()
		log = append(log, fmt.Sprintf("run to %d: err=%v now=%s processed=%d pending=%d",
			end, err, e.Now().Sub(t0), e.Processed, e.Pending()))
	}
	for e.Pending() > 0 {
		e.RunAll()
		log = append(log, fmt.Sprintf("run all: now=%s processed=%d pending=%d", e.Now().Sub(t0), e.Processed, e.Pending()))
	}
	return log
}

// TestScheduleEachMatchesSchedulePerInstant is the engine's equivalence
// property: random mixes of single events and series, scheduled up front
// and from handlers, with ties across series and single events, unsorted,
// empty and past series, Stop, horizons and cancellation mid-series, fire
// in the same order with the same Now, Processed and Pending as the same
// script scheduling every instant with its own Schedule call.
func TestScheduleEachMatchesSchedulePerInstant(t *testing.T) {
	fired, past := 0, 0
	for seed := int64(0); seed < 2000; seed++ {
		script := randomScript(rand.New(rand.NewSource(seed)))
		want, got := script.run(false), script.run(true)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines, want %d\ngot  %q\nwant %q", seed, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d, line %d:\ngot  %s\nwant %s", seed, i, got[i], want[i])
			}
		}
		for _, line := range want {
			if strings.HasPrefix(line, "fire ") {
				fired++
			}
			if strings.Contains(line, "past=true") {
				past++
			}
		}
	}
	if fired < 10000 || past < 100 {
		t.Fatalf("scripts fired %d events and scheduled %d past series: too few to test anything", fired, past)
	}
}

// TestScheduleEachUnsortedKeepsReservedSeq: an unsorted series fires in
// time order, and each instant keeps the seq its slice position reserved
// when the series was scheduled, not one drawn when it is queued: an
// instant tied with a later-scheduled single event fires before it.
func TestScheduleEachUnsortedKeepsReservedSeq(t *testing.T) {
	e := NewEngine(t0)
	var order []string
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	record := func(name string) func(*Engine, time.Time) {
		return func(e *Engine, t time.Time) {
			order = append(order, fmt.Sprintf("%s@%d", name, int(t.Sub(t0)/time.Second)))
		}
	}
	if err := e.ScheduleEach([]time.Time{at(3), at(1), at(2)}, record("a")); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(at(2), func(e *Engine) { record("x")(e, e.Now()) }); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleEach([]time.Time{at(2), at(1)}, record("b")); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", e.Pending())
	}
	e.RunAll()
	want := "[a@1 b@1 a@2 x@2 b@2 a@3]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("fired %s, want %s", got, want)
	}
}

// TestScheduleEachPastSchedulesNothing: a series with one instant before
// Now is refused whole, and reserves no seq.
func TestScheduleEachPastSchedulesNothing(t *testing.T) {
	e := NewEngine(t0)
	err := e.ScheduleEach([]time.Time{t0.Add(time.Second), t0.Add(-time.Second)}, func(*Engine, time.Time) {
		t.Error("a refused series fired")
	})
	if !errors.Is(err, ErrPastEvent) {
		t.Fatalf("got %v, want ErrPastEvent", err)
	}
	if e.Pending() != 0 || e.nextSeq != 0 {
		t.Fatalf("refused series left %d pending and seq %d", e.Pending(), e.nextSeq)
	}
	if err := e.ScheduleEach(nil, nil); err != nil || e.Pending() != 0 {
		t.Fatalf("empty series: err %v, %d pending", err, e.Pending())
	}
	e.RunAll()
}

// TestScheduleEachLeavesInputUnchanged: the engine only reads a series'
// slice, sorted or not, so campaigns may schedule shared read-only plans.
func TestScheduleEachLeavesInputUnchanged(t *testing.T) {
	for _, offsets := range [][]int{{1, 2, 2, 5}, {5, 1, 3, 1}} {
		times := make([]time.Time, len(offsets))
		for i, s := range offsets {
			times[i] = t0.Add(time.Duration(s) * time.Second)
		}
		before := append([]time.Time(nil), times...)
		e := NewEngine(t0)
		if err := e.ScheduleEach(times, func(*Engine, time.Time) {}); err != nil {
			t.Fatal(err)
		}
		e.RunAll()
		for i := range times {
			if !times[i].Equal(before[i]) {
				t.Fatalf("%v: the engine wrote into the series input: %v", offsets, times)
			}
		}
	}
}

// TestEngineFiringAllocatesNothing pins the value queue: once the queue
// has room, scheduling and firing single events allocates nothing, and
// a series costs the same few allocations whatever its length.
func TestEngineFiringAllocatesNothing(t *testing.T) {
	e := NewEngine(t0)
	noop := func(*Engine) {}
	singles := testing.AllocsPerRun(20, func() {
		for i := 0; i < 100; i++ {
			_ = e.Schedule(e.Now().Add(time.Duration(i%7)*time.Second), noop)
		}
		e.RunAll()
	})
	if singles != 0 {
		t.Errorf("100 single events allocate %v times per run, want 0", singles)
	}
	series := func(n int) float64 {
		times := make([]time.Time, n)
		for i := range times {
			times[i] = t0.Add(time.Duration(i) * time.Second)
		}
		each := func(*Engine, time.Time) {}
		return testing.AllocsPerRun(20, func() {
			e := NewEngine(t0)
			_ = e.ScheduleEach(times, each)
			e.RunAll()
		})
	}
	if short, long := series(10), series(10000); long != short {
		t.Errorf("firing a series allocates %v times for 10 instants and %v for 10000, want no allocation per instant", short, long)
	}
}

// BenchmarkEngine runs the active campaign's fig5a-1d event shape: 22
// satellites, each a series of about 270 beacons and a series of about
// 10 drains, plus three sensor chains rescheduling every 30 minutes.
func BenchmarkEngine(b *testing.B) {
	const sats, beacons, drains, nodes = 22, 270, 10, 3
	day := 24 * time.Hour
	beaconTimes := make([][]time.Time, sats)
	drainTimes := make([][]time.Time, sats)
	for s := 0; s < sats; s++ {
		// Passes of 27 beacons every 20 s, ten passes spread over the day.
		for p := 0; p < beacons/27; p++ {
			aos := time.Duration(s)*7*time.Minute + time.Duration(p)*day/10
			for k := 0; k < 27; k++ {
				beaconTimes[s] = append(beaconTimes[s], t0.Add(aos+time.Duration(k)*20*time.Second))
			}
		}
		for d := 0; d < drains; d++ {
			drainTimes[s] = append(drainTimes[s], t0.Add(time.Duration(s)*time.Minute+time.Duration(d)*150*time.Minute))
		}
	}
	end := t0.Add(day + 4*time.Hour)
	var fired int
	onBeacon := func(*Engine, time.Time) { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(t0)
		for s := 0; s < sats; s++ {
			if err := e.ScheduleEach(beaconTimes[s], onBeacon); err != nil {
				b.Fatal(err)
			}
			if err := e.ScheduleEach(drainTimes[s], onBeacon); err != nil {
				b.Fatal(err)
			}
		}
		for n := 0; n < nodes; n++ {
			var sense func(*Engine)
			sense = func(e *Engine) {
				fired++
				if next := e.Now().Add(30 * time.Minute); next.Before(t0.Add(day)) {
					_ = e.Schedule(next, sense)
				}
			}
			if err := e.Schedule(t0.Add(time.Duration(n)*10*time.Minute), sense); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.RunCtx(context.Background(), end); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fired)/float64(b.N), "events/op")
}
