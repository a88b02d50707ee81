package sim

import (
	"errors"
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC)

func TestEngineFiresInOrder(t *testing.T) {
	e := NewEngine(t0)
	var fired []int
	for i, d := range []time.Duration{30 * time.Second, 10 * time.Second, 20 * time.Second} {
		i := i
		if err := e.Schedule(e.Now().Add(d), func(*Engine) { fired = append(fired, i) }); err != nil {
			t.Fatal(err)
		}
	}
	e.RunAll()
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 0 {
		t.Errorf("fired order = %v, want [1 2 0]", fired)
	}
	if e.Now() != t0.Add(30*time.Second) {
		t.Errorf("final clock = %v", e.Now())
	}
	if e.Processed != 3 {
		t.Errorf("Processed = %d", e.Processed)
	}
}

func TestEngineSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine(t0)
	var fired []int
	at := t0.Add(time.Minute)
	for i := 0; i < 10; i++ {
		i := i
		if err := e.Schedule(at, func(*Engine) { fired = append(fired, i) }); err != nil {
			t.Fatal(err)
		}
	}
	e.RunAll()
	for i, got := range fired {
		if got != i {
			t.Fatalf("tie-break not FIFO: %v", fired)
		}
	}
}

func TestEngineRejectsPast(t *testing.T) {
	e := NewEngine(t0)
	if err := e.Schedule(t0.Add(-time.Second), func(*Engine) {}); !errors.Is(err, ErrPastEvent) {
		t.Errorf("want ErrPastEvent, got %v", err)
	}
	// Scheduling exactly "now" is allowed.
	if err := e.Schedule(t0, func(*Engine) {}); err != nil {
		t.Errorf("schedule at now: %v", err)
	}
}

func TestEngineChainedScheduling(t *testing.T) {
	e := NewEngine(t0)
	count := 0
	var tick func(*Engine)
	tick = func(en *Engine) {
		count++
		if count < 5 {
			if err := en.Schedule(en.Now().Add(time.Minute), tick); err != nil {
				t.Error(err)
			}
		}
	}
	if err := e.Schedule(e.Now().Add(time.Minute), tick); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if count != 5 {
		t.Errorf("chained ticks = %d, want 5", count)
	}
	if e.Now() != t0.Add(5*time.Minute) {
		t.Errorf("clock = %v", e.Now())
	}
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine(t0)
	fired := 0
	for i := 1; i <= 10; i++ {
		if err := e.Schedule(e.Now().Add(time.Duration(i)*time.Hour), func(*Engine) { fired++ }); err != nil {
			t.Fatal(err)
		}
	}
	end := t0.Add(5*time.Hour + time.Minute)
	e.Run(end)
	if fired != 5 {
		t.Errorf("fired %d events before horizon, want 5", fired)
	}
	if !e.Now().Equal(end) {
		t.Errorf("clock = %v, want horizon %v", e.Now(), end)
	}
	if e.Pending() != 5 {
		t.Errorf("pending = %d, want 5", e.Pending())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(t0)
	fired := 0
	for i := 1; i <= 10; i++ {
		if err := e.Schedule(e.Now().Add(time.Duration(i)*time.Minute), func(en *Engine) {
			fired++
			if fired == 3 {
				en.Stop()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.RunAll()
	if fired != 3 {
		t.Errorf("fired = %d, want 3 (stopped)", fired)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42, "weather/HK")
	b := NewRNG(42, "weather/HK")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed+name diverged")
		}
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	a := NewRNG(42, "weather/HK")
	c := NewRNG(42, "weather/SYD")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == c.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different names produced %d/100 identical draws", same)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	g := NewRNG(1, "normal")
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := g.Normal(5, 2)
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-5) > 0.1 {
		t.Errorf("mean = %.3f, want 5", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.1 {
		t.Errorf("stddev = %.3f, want 2", math.Sqrt(variance))
	}
}

func TestRNGRicianMeanUnity(t *testing.T) {
	// E[power gain] should be ~1 for any K.
	for _, k := range []float64{1, 5, 10, 50} {
		g := NewRNG(7, "rician")
		var sum float64
		n := 20000
		for i := 0; i < n; i++ {
			sum += g.Rician(k)
		}
		if mean := sum / float64(n); math.Abs(mean-1) > 0.05 {
			t.Errorf("K=%v: mean gain %.3f, want ~1", k, mean)
		}
	}
}

func TestRNGBoolEdges(t *testing.T) {
	g := NewRNG(3, "bool")
	for i := 0; i < 50; i++ {
		if g.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !g.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
	hits := 0
	n := 10000
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / float64(n); math.Abs(frac-0.3) > 0.03 {
		t.Errorf("Bool(0.3) frequency = %.3f", frac)
	}
}

func TestRNGLogNormalDBZeroMean(t *testing.T) {
	g := NewRNG(11, "shadow")
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += g.LogNormalDB(4)
	}
	if mean := sum / float64(n); math.Abs(mean) > 0.15 {
		t.Errorf("shadowing mean = %.3f dB, want ~0", mean)
	}
}

func TestRNGExponentialMean(t *testing.T) {
	g := NewRNG(13, "exp")
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += g.Exponential(30)
	}
	if mean := sum / float64(n); math.Abs(mean-30) > 1.5 {
		t.Errorf("exponential mean = %.2f, want 30", mean)
	}
}
