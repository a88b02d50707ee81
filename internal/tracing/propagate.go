package tracing

import (
	"context"
	"encoding/hex"
	"net/http"
)

// Header is the W3C trace-context header carried on every HTTP hop.
const Header = "traceparent"

// Traceparent renders the context as a W3C traceparent value,
// version 00 with the sampled flag set:
//
//	00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
//
// Invalid contexts render as "".
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	buf := make([]byte, 0, 55)
	buf = append(buf, '0', '0', '-')
	buf = hex.AppendEncode(buf, sc.TraceID[:])
	buf = append(buf, '-')
	buf = hex.AppendEncode(buf, sc.SpanID[:])
	buf = append(buf, '-', '0', '1')
	return string(buf)
}

// ParseTraceparent parses a W3C traceparent value. It accepts any
// version except the reserved ff, ignores trailing version-specific
// fields, and rejects all-zero trace or span IDs per the spec.
func ParseTraceparent(s string) (SpanContext, bool) {
	// version(2) - trace-id(32) - parent-id(16) - flags(2)
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	if len(s) > 55 && s[55] != '-' {
		return SpanContext{}, false
	}
	version := s[0:2]
	if !isHex(version) || version == "ff" {
		return SpanContext{}, false
	}
	if version == "00" && len(s) != 55 {
		return SpanContext{}, false
	}
	var sc SpanContext
	if _, err := hex.Decode(sc.TraceID[:], []byte(s[3:35])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(s[36:52])); err != nil {
		return SpanContext{}, false
	}
	if !isHex(s[53:55]) {
		return SpanContext{}, false
	}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// FromRequest extracts the caller's span context from an incoming
// request's traceparent header (zero context when absent or malformed).
func FromRequest(r *http.Request) SpanContext {
	sc, _ := ParseTraceparent(r.Header.Get(Header))
	return sc
}

// Inject stamps the span context onto an outgoing request. Invalid
// contexts leave the request untouched, so an unconditional Inject on a
// hop degrades to "no propagation" when tracing is off.
func Inject(r *http.Request, sc SpanContext) {
	if sc.Valid() {
		r.Header.Set(Header, sc.Traceparent())
	}
}

// ctxKey keys the (tracer, current span context) pair in a Context.
type ctxKey struct{}

type ctxState struct {
	tracer *Tracer
	sc     SpanContext
}

// NewContext returns ctx carrying the tracer and current span context.
// This is how instrumentation crosses package boundaries without
// coupling: service injects once per attempt, and sim/core phases pick
// the pair up from the context they already receive. A nil tracer still
// carries a valid sc, so a hop can forward a caller's traceparent while
// recording nothing itself; with neither, ctx comes back unchanged.
func NewContext(ctx context.Context, tracer *Tracer, sc SpanContext) context.Context {
	if tracer == nil && !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxState{tracer: tracer, sc: sc})
}

// FromContext returns the tracer and current span context carried by
// ctx, or (nil, zero) when the context is untraced.
func FromContext(ctx context.Context) (*Tracer, SpanContext) {
	if ctx == nil {
		return nil, SpanContext{}
	}
	st, _ := ctx.Value(ctxKey{}).(ctxState)
	return st.tracer, st.sc
}

// Start begins a child span of ctx's current span and returns a context
// whose current span is the new one. On an untraced context it returns
// (ctx, nil) — the nil span's methods no-op, so call sites stay
// branch-free.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	tr, parent := FromContext(ctx)
	if tr == nil {
		return ctx, nil
	}
	sp := tr.StartChild(parent, name, attrs...)
	return NewContext(ctx, tr, sp.Context()), sp
}
