package tracing

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New("test", 16)
	sp := tr.StartChild(SpanContext{}, "job")
	sc := sp.Context()
	if !sc.Valid() {
		t.Fatal("root span has invalid context")
	}
	tp := sc.Traceparent()
	if len(tp) != 55 {
		t.Fatalf("traceparent %q has length %d, want 55", tp, len(tp))
	}
	got, ok := ParseTraceparent(tp)
	if !ok {
		t.Fatalf("ParseTraceparent rejected own output %q", tp)
	}
	if got != sc {
		t.Fatalf("round trip changed context: %+v != %+v", got, sc)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",          // no flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", // v00 with trailer
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // reserved version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",       // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",       // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",       // non-hex
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // bad separator
		"0A-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // uppercase version
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent accepted %q", s)
		}
	}
	// Future versions may append fields after a dash.
	future := "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-what-ever"
	if _, ok := ParseTraceparent(future); !ok {
		t.Errorf("ParseTraceparent rejected future-versioned %q", future)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.StartChild(SpanContext{}, "job", String("k", "v"))
	if sp != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	sp.SetAttr(Int("n", 1))
	sp.SetError(errors.New("boom"))
	sp.End()
	if sc := sp.Context(); sc.Valid() {
		t.Fatal("nil span has valid context")
	}
	if sc := tr.Record(SpanContext{}, "x", time.Now(), time.Now()); sc.Valid() {
		t.Fatal("nil tracer recorded a span")
	}
	if got := tr.Trace(TraceID{1}); got != nil {
		t.Fatal("nil tracer returned spans")
	}
	if got := tr.Roots(10); got != nil {
		t.Fatal("nil tracer returned roots")
	}
	ctx, sp2 := Start(context.Background(), "child")
	if sp2 != nil {
		t.Fatal("Start on untraced context returned a span")
	}
	if tr2, _ := FromContext(ctx); tr2 != nil {
		t.Fatal("untraced context carries a tracer")
	}
}

func TestChildSpansShareTrace(t *testing.T) {
	tr := New("svc", 16)
	root := tr.StartChild(SpanContext{}, "job")
	ctx := NewContext(context.Background(), tr, root.Context())
	ctx2, child := Start(ctx, "attempt", Int("attempt", 1))
	_, grand := Start(ctx2, "phase:contacts")
	grand.End()
	child.End()
	root.End()

	spans := tr.Trace(root.Context().TraceID)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanJSON{}
	for _, s := range spans {
		if s.TraceID != root.Context().TraceID.String() {
			t.Fatalf("span %s has trace %s, want %s", s.Name, s.TraceID, root.Context().TraceID)
		}
		byName[s.Name] = s
	}
	if byName["attempt"].ParentID != byName["job"].SpanID {
		t.Fatal("attempt span is not a child of job")
	}
	if byName["phase:contacts"].ParentID != byName["attempt"].SpanID {
		t.Fatal("phase span is not a child of attempt")
	}
}

func TestRingEvictionUnderLoad(t *testing.T) {
	const capacity = 64
	tr := New("svc", capacity)
	root := tr.StartChild(SpanContext{}, "job")
	root.End()
	for i := 0; i < 10*capacity; i++ {
		tr.Record(root.Context(), "churn", time.Now(), time.Now(), Int("i", i))
	}
	if got := tr.Recorded(); got != 1+10*capacity {
		t.Fatalf("Recorded() = %d, want %d", got, 1+10*capacity)
	}
	spans := tr.snapshot()
	if len(spans) != capacity {
		t.Fatalf("ring holds %d spans, want exactly capacity %d", len(spans), capacity)
	}
	// The survivors must be the newest spans, in recording order.
	for i := 1; i < len(spans); i++ {
		if spans[i].Start.Before(spans[i-1].Start) {
			t.Fatal("snapshot is not in recording order after wraparound")
		}
	}
	last := spans[len(spans)-1]
	if len(last.Attrs) != 1 || last.Attrs[0].Value != itoa(10*capacity-1) {
		t.Fatalf("newest span attr = %+v, want i=%d", last.Attrs, 10*capacity-1)
	}
	// The root was evicted long ago, so its children now count as roots.
	roots := tr.Roots(capacity)
	if len(roots) != capacity {
		t.Fatalf("got %d orphaned roots, want %d", len(roots), capacity)
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := New("svc", 128)
	root := tr.StartChild(SpanContext{}, "job")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := NewContext(context.Background(), tr, root.Context())
			for i := 0; i < 200; i++ {
				_, sp := Start(ctx, fmt.Sprintf("worker-%d", g))
				sp.SetAttr(Int("i", i))
				if i%3 == 0 {
					sp.SetError(errors.New("transient"))
				}
				sp.End()
			}
		}(g)
	}
	// Concurrent readers while writers churn.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Trace(root.Context().TraceID)
				tr.Roots(32)
			}
		}()
	}
	wg.Wait()
	root.End()
	if got := tr.Recorded(); got != 8*200+1 {
		t.Fatalf("Recorded() = %d, want %d", got, 8*200+1)
	}
}

func TestSpanEndIsIdempotent(t *testing.T) {
	tr := New("svc", 8)
	sp := tr.StartChild(SpanContext{}, "job")
	sp.End()
	sp.End()
	sp.End()
	if got := tr.Recorded(); got != 1 {
		t.Fatalf("Recorded() = %d after repeated End, want 1", got)
	}
}

func TestTraceSortedByStart(t *testing.T) {
	tr := New("svc", 16)
	root := tr.StartChild(SpanContext{}, "job")
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	tr.Record(root.Context(), "late", base.Add(2*time.Second), base.Add(3*time.Second))
	tr.Record(root.Context(), "early", base, base.Add(time.Second))
	root.End()
	spans := tr.Trace(root.Context().TraceID)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Name != "early" || spans[1].Name != "late" {
		t.Fatalf("spans not sorted by start: %s, %s, %s", spans[0].Name, spans[1].Name, spans[2].Name)
	}
}

func TestRootsNewestFirstAndLimited(t *testing.T) {
	tr := New("svc", 32)
	for i := 0; i < 5; i++ {
		sp := tr.StartChild(SpanContext{}, "job", Int("i", i))
		sp.End()
	}
	roots := tr.Roots(3)
	if len(roots) != 3 {
		t.Fatalf("got %d roots, want 3", len(roots))
	}
	if roots[0].Attrs[0].Value != "4" || roots[2].Attrs[0].Value != "2" {
		t.Fatalf("roots not newest-first: %+v", roots)
	}
}
