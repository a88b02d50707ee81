package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"github.com/sinet-io/sinet/internal/service"
	"github.com/sinet-io/sinet/internal/tracing"
)

// handleJobTrace serves GET /v1/jobs/{id}/trace with the job's stitched
// distributed timeline. Two shapes of job exist:
//
//   - Proxied jobs ran on one worker: the coordinator fetches that
//     worker's assembled trace and merges in its own spans of the same
//     trace (the proxy.submit hop). A dead worker degrades gracefully to
//     the coordinator-side spans alone — the hop that failed over is
//     often exactly what the caller wants to see.
//
//   - Coordinator-owned jobs (sharded campaigns, or runs with no ready
//     fleet) live in the embedded server; their trace ID is fanned out
//     to every peer as GET /debug/traces?trace=<id> so worker-side shard
//     spans join the timeline. Unreachable peers are skipped: a span
//     recorded on a worker that later died is gone, which is the
//     tracer's documented crash contract (journal durable, tracer not).
func (c *Coordinator) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ent, proxied := c.route(id)
	if !proxied {
		jt, ok := c.local.JobTraceByID(id)
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("unknown job"))
			return
		}
		if jt.TraceID != "" {
			jt.Spans = c.stitchPeers(r.Context(), jt.TraceID, jt.Spans)
		}
		writeJSON(w, http.StatusOK, jt)
		return
	}
	jt, err := c.fetchJobTrace(r.Context(), ent.peer, id)
	if err != nil {
		jt = service.JobTrace{JobID: id, Spans: []tracing.SpanJSON{}}
	}
	if jt.TraceID == "" && !ent.trace.IsZero() {
		jt.TraceID = ent.trace.String()
	}
	if tid, ok := tracing.ParseTraceID(jt.TraceID); ok {
		jt.Spans = append(jt.Spans, c.local.Tracer().Trace(tid)...)
		tracing.SortSpans(jt.Spans)
	}
	writeJSON(w, http.StatusOK, jt)
}

// stitchPeers merges every reachable peer's spans of the trace into
// spans and returns the result sorted on the shared timeline. Peers are
// queried concurrently; fetch errors skip the peer.
func (c *Coordinator) stitchPeers(ctx context.Context, traceID string, spans []tracing.SpanJSON) []tracing.SpanJSON {
	if _, ok := tracing.ParseTraceID(traceID); !ok {
		return spans
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, peer := range c.cfg.Peers {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			remote, err := c.fetchTrace(ctx, peer, traceID)
			if err != nil || len(remote) == 0 {
				return
			}
			mu.Lock()
			spans = append(spans, remote...)
			mu.Unlock()
		}(peer)
	}
	wg.Wait()
	tracing.SortSpans(spans)
	return spans
}

// fetchJobTrace retrieves one worker's assembled trace for a job it owns.
func (c *Coordinator) fetchJobTrace(ctx context.Context, peer, id string) (service.JobTrace, error) {
	var jt service.JobTrace
	err := c.getJSON(ctx, peer+"/v1/jobs/"+url.PathEscape(id)+"/trace", &jt)
	return jt, err
}

// fetchTrace retrieves one peer's spans for a trace ID.
func (c *Coordinator) fetchTrace(ctx context.Context, peer, traceID string) ([]tracing.SpanJSON, error) {
	var tj tracing.TraceJSON
	err := c.getJSON(ctx, peer+"/debug/traces?trace="+url.QueryEscape(traceID), &tj)
	return tj.Spans, err
}

func (c *Coordinator) getJSON(ctx context.Context, u string, v any) error {
	resp, body, err := exchange(ctx, c.client, http.MethodGet, u, nil, "", 5*time.Second, 4<<20)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s: status %d", u, resp.StatusCode)
	}
	return json.Unmarshal(body, v)
}
