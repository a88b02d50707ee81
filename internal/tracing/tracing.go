// Package tracing is a zero-dependency distributed-tracing subsystem for
// the serving stack: 128-bit trace IDs, spans with parents, key-value
// attributes and statuses, recorded into a bounded per-process ring
// buffer and propagated across HTTP hops with the W3C traceparent header.
//
// The design contract mirrors internal/obs: tracing observes execution,
// it never parameterizes it. Span IDs come from crypto/rand (no shared
// math/rand state, no named sim.RNG stream is ever touched), timestamps
// are read after work completes on the paths that matter, and every
// recording API is nil-safe — a nil *Tracer produces nil *Spans whose
// methods no-op — so "tracing off" is the zero value, and the campaign
// bytes with tracing on are pinned identical to tracing off by the
// service-layer acceptance test.
//
// (The name internal/trace was already taken by the measurement-dataset
// codec, hence internal/tracing.)
package tracing

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 128-bit trace identifier shared by every span of one
// distributed timeline.
type TraceID [16]byte

// SpanID is a 64-bit span identifier, unique within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID parses a 32-hex-digit trace ID.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return id, !id.IsZero()
}

// SpanContext identifies one span within one trace — the unit of
// propagation. The zero value is "no context".
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether the context identifies a real span.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Attr is one key-value span attribute. Values are strings by design:
// attributes annotate timelines for humans and assertions, they are not a
// metrics system (internal/obs is).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int) Attr { return Attr{Key: key, Value: itoa(value)} }

// Bool builds a boolean attribute.
func Bool(key string, value bool) Attr {
	if value {
		return Attr{Key: key, Value: "true"}
	}
	return Attr{Key: key, Value: "false"}
}

// itoa avoids strconv for the tiny non-negative-and-small-negative range
// attributes use; it handles the general case anyway for safety.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// SpanData is one completed span as stored in the ring buffer.
type SpanData struct {
	Context  SpanContext
	Parent   SpanID // zero for trace roots
	Name     string
	Service  string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
	Error    string // non-empty marks the span failed
}

// Span is an in-flight span. End records it into its tracer's ring
// buffer; a span that is never ended (process death) is simply lost,
// which is the crash contract — the journal, not the tracer, is durable.
// All methods are safe on a nil receiver, the "tracing off" case.
type Span struct {
	tracer *Tracer

	mu    sync.Mutex
	data  SpanData
	ended bool
}

// Context returns the span's propagation context (zero for nil spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.data.Context
}

// SetAttr appends attributes to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.data.Attrs = append(s.data.Attrs, attrs...)
	s.mu.Unlock()
}

// SetError marks the span failed with the error's message. A nil error
// leaves the span untouched.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.data.Error = err.Error()
	s.mu.Unlock()
}

// End stamps the span's duration and records it. Idempotent: only the
// first End records.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.Duration = time.Since(s.data.Start)
	data := s.data
	s.mu.Unlock()
	s.tracer.record(data)
}

// DefaultCapacity is the ring-buffer span bound used when a Tracer is
// built with capacity <= 0. At ~200 bytes a span the default ring costs
// about 1 MB — always-on money.
const DefaultCapacity = 4096

// Tracer records completed spans into a bounded ring buffer: recording
// never allocates beyond the span itself and never blocks beyond a short
// mutex, and once the ring is full every new span evicts the oldest one.
// A nil *Tracer disables tracing: every method no-ops or returns nil.
type Tracer struct {
	service string

	mu     sync.Mutex
	ring   []SpanData
	next   int // next write slot
	filled bool

	recorded atomic.Uint64 // total spans ever recorded (eviction tests)
	idErr    atomic.Uint64 // crypto/rand failures answered by the fallback
	fallback atomic.Uint64 // fallback ID sequence
}

// New builds a tracer identified by service (stamped on every span) with
// a ring buffer of the given span capacity (<= 0 means DefaultCapacity).
func New(service string, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{service: service, ring: make([]SpanData, 0, capacity)}
}

// Service returns the tracer's process identity ("" for nil).
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.service
}

// Capacity returns the ring-buffer bound (0 for nil).
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return cap(t.ring)
}

// Recorded returns the total number of spans ever recorded, including
// spans since evicted from the ring.
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.recorded.Load()
}

// randomBytes fills b from crypto/rand, falling back to a counter-derived
// pattern if the system source fails — IDs must never block recording.
func (t *Tracer) randomBytes(b []byte) {
	if _, err := rand.Read(b); err != nil {
		t.idErr.Add(1)
		seq := t.fallback.Add(1)
		for i := 0; i < len(b); i += 8 {
			end := i + 8
			if end > len(b) {
				end = len(b)
			}
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], seq+uint64(i))
			copy(b[i:end], buf[:])
		}
	}
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		t.randomBytes(id[:])
	}
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		t.randomBytes(id[:])
	}
	return id
}

// StartChild begins a span under parent. An invalid parent starts a new
// trace instead, so callers can thread an optional incoming context
// through without branching.
func (t *Tracer) StartChild(parent SpanContext, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{tracer: t}
	sp.data = SpanData{
		Name:    name,
		Service: t.service,
		Start:   time.Now().UTC(),
		Attrs:   attrs,
	}
	if parent.Valid() {
		sp.data.Context = SpanContext{TraceID: parent.TraceID, SpanID: t.newSpanID()}
		sp.data.Parent = parent.SpanID
	} else {
		sp.data.Context = SpanContext{TraceID: t.newTraceID(), SpanID: t.newSpanID()}
	}
	return sp
}

// Record stores an already-completed span with explicit start and end
// times — the shape for retrospective spans (queue wait, retry backoff)
// where holding a live *Span across the wait would complicate ownership.
// It returns the recorded span's context.
func (t *Tracer) Record(parent SpanContext, name string, start, end time.Time, attrs ...Attr) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	data := SpanData{
		Name:     name,
		Service:  t.service,
		Start:    start.UTC(),
		Duration: end.Sub(start),
		Attrs:    attrs,
	}
	if parent.Valid() {
		data.Context = SpanContext{TraceID: parent.TraceID, SpanID: t.newSpanID()}
		data.Parent = parent.SpanID
	} else {
		data.Context = SpanContext{TraceID: t.newTraceID(), SpanID: t.newSpanID()}
	}
	t.record(data)
	return data.Context
}

// record appends one completed span, evicting the oldest when full.
func (t *Tracer) record(data SpanData) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, data)
	} else {
		t.ring[t.next] = data
		t.filled = true
	}
	t.next++
	if t.next == cap(t.ring) {
		t.next = 0
		t.filled = true
	}
	t.mu.Unlock()
	t.recorded.Add(1)
}

// snapshot copies the ring's live spans in recording order (oldest
// first). Callers own the returned slice.
func (t *Tracer) snapshot() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, 0, len(t.ring))
	if t.filled && len(t.ring) == cap(t.ring) {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
		return out
	}
	return append(out, t.ring...)
}
