package sim

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// --- forEach panic recovery ---

func TestForEachRecoversPanicIntoError(t *testing.T) {
	var ran int32
	err := forEach("t", 8, func(i int) error {
		if i == 5 {
			panic("boom")
		}
		atomic.AddInt32(&ran, 1)
		return nil
	}, nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if pe.Index != 5 {
		t.Fatalf("panic attributed to index %d, want 5", pe.Index)
	}
	if pe.Value != "boom" {
		t.Fatalf("panic value %v, want boom", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("recovered panic carries no stack")
	}
	if ran != 7 {
		t.Fatalf("%d non-panicking indices ran, want 7 (one failure must not cancel the rest)", ran)
	}
}

func TestForEachErrLowestIndexPanicWins(t *testing.T) {
	err := forEach("t", 10, func(i int) error {
		if i == 2 || i == 8 {
			panic(i)
		}
		return nil
	}, nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if pe.Index != 2 {
		t.Fatalf("reported index %d, want the lowest (2)", pe.Index)
	}
}

func TestForEachErrPanicBeatsLaterError(t *testing.T) {
	sentinel := errors.New("plain failure")
	err := forEach("t", 6, func(i int) error {
		switch i {
		case 1:
			panic("early")
		case 4:
			return sentinel
		}
		return nil
	}, nil)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 1 {
		t.Fatalf("got %v, want the index-1 panic", err)
	}
}

// --- Engine edge cases ---

func TestEngineSchedulePastAfterClockAdvance(t *testing.T) {
	start := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	e := NewEngine(start)
	var rejected error
	if err := e.Schedule(start.Add(time.Hour), func(e *Engine) {
		// The clock is now start+1h; scheduling before it must fail.
		rejected = e.Schedule(start.Add(30*time.Minute), func(*Engine) {
			t.Error("past event fired")
		})
	}); err != nil {
		t.Fatal(err)
	}
	e.Run(start.Add(2 * time.Hour))
	if !errors.Is(rejected, ErrPastEvent) {
		t.Fatalf("mid-run past schedule returned %v, want ErrPastEvent", rejected)
	}
}

func TestEngineScheduleExactlyNowFires(t *testing.T) {
	start := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	e := NewEngine(start)
	fired := false
	if err := e.Schedule(start, func(e *Engine) {
		if err := e.Schedule(e.Now(), func(*Engine) { fired = true }); err != nil {
			t.Errorf("schedule at exactly now rejected: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	e.Run(start.Add(time.Hour))
	if !fired {
		t.Fatal("event scheduled at the current instant never fired")
	}
}

func TestEngineTieBreakSurvivesHeapChurn(t *testing.T) {
	start := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	e := NewEngine(start)
	at := start.Add(time.Hour)
	var order []int
	// Interleave scheduling at two instants so the heap reshuffles, then
	// verify same-instant events still fire in scheduling order.
	for i := 0; i < 10; i++ {
		i := i
		if err := e.Schedule(at, func(*Engine) { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
		if err := e.Schedule(start.Add(30*time.Minute), func(*Engine) {}); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(start.Add(2 * time.Hour))
	for i, got := range order {
		if got != i {
			t.Fatalf("tie-broken order %v, want ascending scheduling order", order)
		}
	}
}

func TestEngineResumeAfterStop(t *testing.T) {
	start := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	e := NewEngine(start)
	var fired []int
	for i := 0; i < 3; i++ {
		i := i
		if err := e.Schedule(start.Add(time.Duration(i+1)*time.Minute), func(e *Engine) {
			fired = append(fired, i)
			if i == 0 {
				e.Stop()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	end := start.Add(time.Hour)
	e.Run(end)
	if len(fired) != 1 {
		t.Fatalf("Stop did not halt the loop: fired %v", fired)
	}
	if e.Pending() != 2 {
		t.Fatalf("queue lost events across Stop: %d pending, want 2", e.Pending())
	}
	// A fresh Run resumes from the intact queue.
	e.Run(end)
	if len(fired) != 3 {
		t.Fatalf("resume after Stop fired %v, want all three", fired)
	}
}

func TestEngineRunCtxPreCancelled(t *testing.T) {
	start := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	e := NewEngine(start)
	fired := false
	if err := e.Schedule(start.Add(time.Minute), func(*Engine) { fired = true }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.RunCtx(ctx, start.Add(time.Hour)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if fired {
		t.Fatal("event fired under a pre-cancelled context")
	}
	if e.Pending() != 1 {
		t.Fatal("cancellation drained the queue")
	}
}

func TestEngineRunCtxCancelMidRun(t *testing.T) {
	start := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	e := NewEngine(start)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired []int
	for i := 0; i < 5; i++ {
		i := i
		if err := e.Schedule(start.Add(time.Duration(i+1)*time.Minute), func(*Engine) {
			fired = append(fired, i)
			if i == 1 {
				cancel()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RunCtx(ctx, start.Add(time.Hour)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if len(fired) != 2 {
		t.Fatalf("cancel mid-run fired %v, want exactly the first two events", fired)
	}
	if e.Pending() != 3 {
		t.Fatalf("queue after cancellation holds %d events, want 3", e.Pending())
	}
	if got := e.Now(); !got.Equal(start.Add(2 * time.Minute)) {
		t.Fatalf("clock after cancellation = %v, want the last fired event's time", got)
	}
}

// --- RNG stream independence ---

// TestRNGStreamsUncorrelated goes beyond exact-collision counting: distinct
// stream names under the same master seed must produce statistically
// uncorrelated sequences (|Pearson r| small over many draws).
func TestRNGStreamsUncorrelated(t *testing.T) {
	const n = 20000
	pairs := [][2]string{
		{"fault/station/HK-01", "fault/station/HK-02"},
		{"fault/station/HK-01", "fault/sat/44027"},
		{"weather/HK", "fault/drain/0"},
		{"a", "b"},
	}
	for _, p := range pairs {
		x := NewRNG(42, p[0])
		y := NewRNG(42, p[1])
		var sx, sy, sxx, syy, sxy float64
		for i := 0; i < n; i++ {
			a, b := x.Float64(), y.Float64()
			sx += a
			sy += b
			sxx += a * a
			syy += b * b
			sxy += a * b
		}
		cov := sxy/n - (sx/n)*(sy/n)
		vx := sxx/n - (sx/n)*(sx/n)
		vy := syy/n - (sy/n)*(sy/n)
		r := cov / math.Sqrt(vx*vy)
		if math.Abs(r) > 0.05 {
			t.Errorf("streams %q vs %q: |pearson r| = %.4f over %d draws, want ≈0", p[0], p[1], r, n)
		}
	}
}

// TestRNGSameNameDifferentSeed guards the other axis: the same stream name
// under different master seeds must diverge.
func TestRNGSameNameDifferentSeed(t *testing.T) {
	a := NewRNG(1, "fault/station/HK-01")
	b := NewRNG(2, "fault/station/HK-01")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical draws", same)
	}
}
