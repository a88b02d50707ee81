package main

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/sinet-io/sinet/internal/service"
	"github.com/sinet-io/sinet/internal/tracing"
)

var (
	errRefused  = errors.New("refused")
	errMismatch = errors.New("result bytes differ from the expected bytes")
)

// outcome records one client request, submit to last result byte.
type outcome struct {
	job      *job
	id       string
	trace    tracing.TraceID // the benchmark's own trace (traced run only)
	due      time.Time       // scheduled send time; latency is timed from it
	sent     time.Time
	accepted time.Time // 202 read
	terminal time.Time // terminal SSE event read (= accepted for cache hits)
	end      time.Time // last result byte read
	bytes    int
	sum      [sha256.Size]byte
	data     []byte // the result itself, when the loader keeps it
	err      error
}

func (o *outcome) latency() time.Duration { return o.end.Sub(o.due) }

// loader drives one daemon over HTTP the way a client would: POST the
// spec, follow the SSE stream to a terminal state, GET the result.
type loader struct {
	c    *http.Client
	base string
	rec  *recorder // nil when untraced
	keep bool      // keep result bytes in outcome.data
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.Unmarshal(body, v)
}

// do runs one job, reading its result into buf, which each client reuses
// so that large results add no client garbage to the daemon's GC and RSS.
// When expect is non-nil the result must equal it byte for byte; otherwise
// its digest is kept for later verification.
func (l *loader) do(j *job, due time.Time, expect []byte, buf *bytes.Buffer) outcome {
	o := outcome{job: j, due: due, sent: time.Now()}
	var root tracing.SpanContext
	if l.rec != nil {
		root = newSpanContext()
		o.trace = root.TraceID
	}
	o.err = l.exchange(&o, root, expect, buf)
	if l.rec != nil {
		l.rec.request(&o, root)
	}
	return o
}

func (l *loader) exchange(o *outcome, root tracing.SpanContext, expect []byte, buf *bytes.Buffer) error {
	req, err := http.NewRequest(http.MethodPost, l.base+"/v1/jobs", bytes.NewReader(o.job.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if root.Valid() {
		tracing.Inject(req, root)
	}
	resp, err := l.c.Do(req)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.accepted = time.Now()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return fmt.Errorf("submit: status %d: %w", resp.StatusCode, errRefused)
	default:
		return fmt.Errorf("submit: status %d: %s", resp.StatusCode, body)
	}
	var view service.JobView
	if err := json.Unmarshal(body, &view); err != nil {
		return fmt.Errorf("submit: decode: %w", err)
	}
	o.id = view.ID
	state := view.State
	if !state.Terminal() {
		if state, err = l.await(view.ID); err != nil {
			return err
		}
	}
	o.terminal = time.Now()
	if state != service.StateDone {
		return fmt.Errorf("job %s ended %s", view.ID, state)
	}
	resp, err = l.c.Get(l.base + "/v1/jobs/" + view.ID + "/result")
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	o.end = time.Now()
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("result: status %d", resp.StatusCode)
	}
	data := buf.Bytes()
	o.bytes = len(data)
	if expect != nil {
		if !bytes.Equal(data, expect) {
			return fmt.Errorf("job %s (%s): %w", view.ID, o.job.shape, errMismatch)
		}
		return nil
	}
	o.sum = sha256.Sum256(data)
	if l.keep {
		o.data = bytes.Clone(data)
	}
	return nil
}

// await follows the job's SSE stream until it reports a terminal state.
func (l *loader) await(id string) (service.State, error) {
	resp, err := l.c.Get(l.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return "", fmt.Errorf("events: decode: %w", err)
		}
		if ev.State.Terminal() {
			// Drain the stream's end so the connection is reused.
			_, _ = io.Copy(io.Discard, resp.Body)
			return ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("events: %w", err)
	}
	return "", fmt.Errorf("events: stream for %s ended before a terminal state", id)
}

// closedLoop runs clients that each submit their next job only after the
// previous one's result arrived, until d has passed. Jobs still running at
// the deadline are finished but marked late: they count as attempted (and
// failed, if they fail) but not as samples of the window.
func closedLoop(l *loader, next func() *job, clients int, d time.Duration) (outs []outcome, start, deadline time.Time) {
	start = time.Now()
	deadline = start.Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				j := next()
				if j == nil {
					return
				}
				o := l.do(j, time.Now(), nil, &buf)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, start, deadline
}

// arrival is one open-loop request: which job and when it is due.
type arrival struct {
	job *job
	at  time.Duration // offset from the window start
}

// openLoop sends each arrival at its due time regardless of how earlier
// ones fare, over at most clients connections; latency is timed from the
// due time, so a stall charges every request queued behind it. lags holds
// how late the generator dispatched each request.
func openLoop(l *loader, plan []arrival, expect map[*job][]byte, clients int) (outs []outcome, lags []time.Duration, start time.Time) {
	type due struct {
		job *job
		at  time.Time
	}
	// Sized to the whole plan so the generator never blocks on senders.
	ch := make(chan due, len(plan))
	outs = make([]outcome, 0, len(plan))
	lags = make([]time.Duration, 0, len(plan))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for d := range ch {
				o := l.do(d.job, d.at, expect[d.job], &buf)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	start = time.Now()
	for _, a := range plan {
		at := start.Add(a.at)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		lags = append(lags, time.Since(at))
		ch <- due{a.job, at}
	}
	close(ch)
	wg.Wait()
	return outs, lags, start
}

// newSpanContext draws random trace and span IDs for a benchmark span.
func newSpanContext() tracing.SpanContext {
	var sc tracing.SpanContext
	for !sc.Valid() {
		_, _ = rand.Read(sc.TraceID[:])
		_, _ = rand.Read(sc.SpanID[:])
	}
	return sc
}

// recorder keeps the benchmark's own spans in memory, in the program's
// export format, until the traced run writes them out.
type recorder struct {
	mu    sync.Mutex
	spans map[tracing.TraceID][]tracing.SpanJSON
}

func newRecorder() *recorder {
	return &recorder{spans: map[tracing.TraceID][]tracing.SpanJSON{}}
}

func (r *recorder) add(trace tracing.TraceID, id, parent tracing.SpanID, name string, start, end time.Time, attrs ...tracing.Attr) {
	s := tracing.SpanJSON{
		TraceID:    trace.String(),
		SpanID:     id.String(),
		Name:       name,
		Service:    "bench",
		Start:      start.UTC().Format(time.RFC3339Nano),
		DurationMS: ms(end.Sub(start)),
		Attrs:      attrs,
	}
	if !parent.IsZero() {
		s.ParentID = parent.String()
	}
	r.mu.Lock()
	r.spans[trace] = append(r.spans[trace], s)
	r.mu.Unlock()
}

// request records one outcome as a bench.job span with its client-side
// stages as children.
func (r *recorder) request(o *outcome, root tracing.SpanContext) {
	end := o.end
	if o.err != nil || end.IsZero() {
		end = time.Now()
	}
	attrs := []tracing.Attr{tracing.String("shape", o.job.shape), tracing.String("job", o.id)}
	if o.err != nil {
		attrs = append(attrs, tracing.String("error", o.err.Error()))
	}
	r.add(root.TraceID, root.SpanID, tracing.SpanID{}, "bench.job", o.due, end, attrs...)
	stage := func(name string, from, to time.Time) {
		if !from.IsZero() && !to.IsZero() && !to.Before(from) {
			r.add(root.TraceID, newSpanContext().SpanID, root.SpanID, name, from, to)
		}
	}
	stage("bench.send_lag", o.due, o.sent)
	stage("bench.submit", o.sent, o.accepted)
	stage("bench.wait", o.accepted, o.terminal)
	stage("bench.result_get", o.terminal, o.end)
}

func (r *recorder) trace(id tracing.TraceID) []tracing.SpanJSON {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]tracing.SpanJSON(nil), r.spans[id]...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
