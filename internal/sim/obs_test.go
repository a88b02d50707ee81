package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/tracing"
)

// TestForEachTelemetry verifies the pool counts executed tasks and
// recovered panics, and the phase instrument records one observation per
// phase run.
func TestForEachTelemetry(t *testing.T) {
	r := obs.New()
	SetMetrics(r)
	defer SetMetrics(nil)
	tasks := r.Counter("sinet_sim_tasks_total", "")
	panics := r.Counter("sinet_sim_panics_total", "")
	phase := r.HistogramVec("sinet_sim_phase_seconds", "", "phase", obs.DurationBuckets)

	if err := Phase(context.Background(), "build", 8, func(i int) error { return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if got := tasks.Value(); got != 8 {
		t.Errorf("tasks = %d, want 8", got)
	}
	if got := phase.With("build").Count(); got != 1 {
		t.Errorf("phase observations = %d, want 1", got)
	}

	err := Phase(context.Background(), "crashy", 4, func(i int) error {
		if i == 2 {
			panic("boom")
		}
		return nil
	}, nil)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 2 {
		t.Fatalf("want PanicError on index 2, got %v", err)
	}
	if got := panics.Value(); got != 1 {
		t.Errorf("panics = %d, want 1", got)
	}
	if got := tasks.Value(); got != 12 {
		t.Errorf("a panicking task still counts as executed: tasks = %d, want 12", got)
	}
	if got := phase.With("crashy").Count(); got != 1 {
		t.Errorf("a failed phase still records one observation: got %d", got)
	}
}

// countClockReads swaps the instrument's clock for one that counts reads.
func countClockReads(t *testing.T) *int {
	reads := 0
	now = func() time.Time { reads++; return time.Now() }
	t.Cleanup(func() { now = time.Now })
	return &reads
}

// TestForEachPhaseUninstalled verifies Phase without a registry or tracer
// runs the phase untouched, records nothing and never reads the clock.
func TestForEachPhaseUninstalled(t *testing.T) {
	SetMetrics(nil)
	reads := countClockReads(t)
	hits := make([]bool, 5)
	if err := Phase(context.Background(), "quiet", 5, func(i int) error { hits[i] = true; return nil }, nil, tracing.Int("units", 5)); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if !h {
			t.Errorf("index %d never ran", i)
		}
	}
	if *reads != 0 {
		t.Errorf("uninstrumented phase read the clock %d times", *reads)
	}
}

// TestPhaseSpan verifies a traced phase records exactly one
// "phase:<name>" span carrying the caller's attributes, plus the error
// when the phase fails, and reads the clock once at each end.
func TestPhaseSpan(t *testing.T) {
	SetMetrics(nil)
	reads := countClockReads(t)
	tr := tracing.New("test", 16)
	root := tr.StartChild(tracing.SpanContext{}, "root")
	ctx := tracing.NewContext(context.Background(), tr, root.Context())
	boom := errors.New("boom")
	if err := Phase(ctx, "plan", 3, func(int) error { return nil }, nil, tracing.Int("units", 3)); err != nil {
		t.Fatal(err)
	}
	if err := Phase(ctx, "packets", 2, func(int) error { return boom }, nil, tracing.Int("units", 2)); err != boom {
		t.Fatalf("phase error = %v, want %v", err, boom)
	}
	root.End()
	if *reads != 4 {
		t.Errorf("two traced phases read the clock %d times, want 4", *reads)
	}
	spans := map[string]tracing.SpanJSON{}
	for _, sp := range tr.Trace(root.Context().TraceID) {
		if _, dup := spans[sp.Name]; dup {
			t.Errorf("span %q recorded twice", sp.Name)
		}
		spans[sp.Name] = sp
	}
	want := map[string][]tracing.Attr{
		"phase:plan":    {tracing.Int("units", 3)},
		"phase:packets": {tracing.Int("units", 2), tracing.String("error", "boom")},
	}
	for name, attrs := range want {
		sp, ok := spans[name]
		if !ok {
			t.Errorf("no %s span", name)
			continue
		}
		if sp.ParentID != root.Context().SpanID.String() {
			t.Errorf("%s is not a child of the root span", name)
		}
		if len(sp.Attrs) != len(attrs) {
			t.Errorf("%s attrs = %v, want %v", name, sp.Attrs, attrs)
			continue
		}
		for i := range attrs {
			if sp.Attrs[i] != attrs[i] {
				t.Errorf("%s attrs = %v, want %v", name, sp.Attrs, attrs)
			}
		}
	}
}
