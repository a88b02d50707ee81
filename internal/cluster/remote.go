package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"github.com/sinet-io/sinet/internal/service"
	"github.com/sinet-io/sinet/internal/sim"
	"github.com/sinet-io/sinet/internal/tracing"
)

// maxResultBytes bounds the result bytes one exchange reads: a shard
// result, or a peer's cached bytes.
const maxResultBytes = 256 << 20

// exchange issues one coordinator→worker request and reads the response
// body: every worker hop except proxyJob's streaming relay goes through
// it. timeout bounds the whole exchange, body read included, and a body
// longer than limit bytes is an error, never a cut body. The request
// carries ctx's span context as a W3C traceparent, so worker-side spans
// nest under the coordinator span that issued the hop; reqID, when set,
// as X-Request-Id; and a non-nil body as JSON. resp is non-nil once the
// worker has answered, even when reading its body then fails.
func exchange(ctx context.Context, client *http.Client, method, target string, body []byte, reqID string, timeout time.Duration, limit int64) (resp *http.Response, data []byte, err error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var payload io.Reader
	if body != nil {
		payload = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, target, payload)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	_, sc := tracing.FromContext(ctx)
	tracing.Inject(req, sc)
	if resp, err = client.Do(req); err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err == nil && int64(len(data)) > limit {
		return resp, nil, fmt.Errorf("%s %s: response body exceeds %d bytes", method, target, limit)
	}
	return resp, data, err
}

// errPermanent marks remote failures no other worker can fix — a bad
// spec, or a campaign that genuinely failed after the worker's own retry
// budget. runRemote stops failing over when it sees one.
var errPermanent = errors.New("permanent remote failure")

// backpressureError is a worker's 429/503 with its Retry-After hint: the
// shard should wait that long and retry the same worker, not stampede
// the next one.
type backpressureError struct {
	status     int
	retryAfter time.Duration
}

func (e *backpressureError) Error() string {
	return fmt.Sprintf("worker pushed back with %d (retry after %s)", e.status, e.retryAfter)
}

// newJitterRNG derives a deterministic jitter stream (the retryDelay
// pattern from the service layer: master seed 0, purpose-named stream).
func newJitterRNG(name string) *sim.RNG { return sim.NewRNG(0, name) }

// remoteMaxRounds bounds how many full passes over the failover sequence
// one shard makes before giving up; within a pass every peer is tried
// once. Combined with the local server's job retry budget this tolerates
// a worker dying mid-shard without ever wedging a campaign.
const remoteMaxRounds = 3

// remoteStatusWait is the long-poll wait of a shard's status request:
// the worker answers once the shard is terminal, or after this long with
// its current view. It stays below the 10 s status exchange timeout, so
// a live worker always answers before the exchange gives up.
const remoteStatusWait = 8 * time.Second

// remotePollInterval is the pause after a failed status poll.
const remotePollInterval = 50 * time.Millisecond

// runRemote executes one (usually shard) spec on the fleet and returns
// its result bytes. The key's ring sequence is the failover order: a
// dead or erroring peer costs a jittered backoff and a hop to the next;
// backpressure (429/503) waits out the worker's own Retry-After hint
// before the next attempt. Only permanent failures — bad specs,
// campaigns that failed on-worker — abort early.
func (c *Coordinator) runRemote(ctx context.Context, spec *service.JobSpec, key service.Key) ([]byte, error) {
	canonical, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	attempt := 0
	var lastErr error
	for round := 0; round < remoteMaxRounds; round++ {
		for _, peer := range c.candidates(key) {
			if attempt > 0 {
				c.metrics.failovers.Inc()
				if err := c.waitRetry(ctx, key, attempt, lastErr); err != nil {
					return nil, err
				}
			}
			attempt++
			// Every attempt — including the resubmission after a worker
			// death — is a "shard.attempt" span, so a killed worker shows
			// up on the stitched timeline as the same shard reappearing on
			// another peer with attempt >= 2.
			actx, att := tracing.Start(ctx, "shard.attempt",
				tracing.String("peer", peer), tracing.Int("attempt", attempt))
			data, err := c.runOn(actx, peer, canonical)
			if err == nil {
				att.SetAttr(tracing.Int("bytes", len(data)))
				att.End()
				return data, nil
			}
			att.SetError(err)
			att.End()
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if errors.Is(err, errPermanent) {
				return nil, err
			}
			lastErr = err
			if c.logger != nil {
				c.logger.Warn("remote run failed, failing over",
					slog.String("key", key.Short()),
					slog.String("peer", peer),
					slog.String("error", err.Error()))
			}
		}
	}
	return nil, fmt.Errorf("cluster: %s failed on every peer after %d attempts: %w", key.Short(), attempt, lastErr)
}

// waitRetry sleeps out the backoff before a failover attempt: a worker's
// explicit Retry-After hint when the failure was backpressure, otherwise
// a deterministically jittered beat from a key-and-attempt-named stream
// (so concurrent shards of one campaign never thundering-herd one peer).
func (c *Coordinator) waitRetry(ctx context.Context, key service.Key, attempt int, lastErr error) error {
	delay := 100 * time.Millisecond
	var bp *backpressureError
	if errors.As(lastErr, &bp) && bp.retryAfter > 0 {
		delay = bp.retryAfter
	} else {
		rng := newJitterRNG(fmt.Sprintf("cluster/retry/%s/%d", key.Short(), attempt))
		delay += time.Duration(rng.Float64() * float64(delay))
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(delay):
		return nil
	}
}

// runOn submits the spec to one worker, long-polls it to a terminal
// state and fetches the result bytes. Each status request waits on the
// worker until the job is terminal (or remoteStatusWait passes), so the
// shard's completion reaches the coordinator as it happens and the loop
// never sleeps between answered polls. Transport errors mid-poll mean
// the worker died: after maxPollFailures of them in a row, each followed
// by a remotePollInterval pause, the returned (retryable) error sends
// the caller to the next ring peer, whose run of the same
// content-addressed spec yields the same bytes. On context cancellation
// the pending poll is abandoned and the remote job gets a best-effort
// DELETE so the fleet stops computing for nobody.
func (c *Coordinator) runOn(ctx context.Context, peer string, canonical []byte) ([]byte, error) {
	c.addLoad(peer, 1)
	defer c.addLoad(peer, -1)

	id, err := c.submitOn(ctx, peer, canonical)
	if err != nil {
		return nil, err
	}
	defer func() {
		if ctx.Err() != nil {
			// Best effort, so its outcome is dropped: a worker that misses
			// the cancel finishes a job nobody polls. The context is
			// detached from the dead one's cancellation but still carries
			// its span.
			_, _, _ = exchange(context.WithoutCancel(ctx), c.client, http.MethodDelete, peer+"/v1/jobs/"+id, nil, "", 5*time.Second, 4096)
		}
	}()

	const maxPollFailures = 5
	failures := 0
	for {
		view, err := c.statusOn(ctx, peer, id)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if failures++; failures >= maxPollFailures {
				return nil, fmt.Errorf("worker %s stopped answering for job %s: %w", peer, id, err)
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(remotePollInterval):
			}
			continue
		}
		failures = 0
		switch view.State {
		case service.StateDone:
			return c.resultOn(ctx, peer, id)
		case service.StateFailed:
			return nil, fmt.Errorf("%w: job %s failed on %s: %s", errPermanent, id, peer, view.Error)
		case service.StateCanceled:
			return nil, fmt.Errorf("%w: job %s canceled on %s", errPermanent, id, peer)
		}
	}
}

// submitOn posts the spec to one worker and returns the accepted job ID.
func (c *Coordinator) submitOn(ctx context.Context, peer string, canonical []byte) (string, error) {
	reqID := fmt.Sprintf("c%06d", c.reqSeq.Add(1))
	resp, body, err := exchange(ctx, c.client, http.MethodPost, peer+"/v1/jobs", canonical, reqID, 15*time.Second, 1<<20)
	if err != nil {
		return "", err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		var accepted struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &accepted); err != nil || accepted.ID == "" {
			return "", fmt.Errorf("worker %s returned an unreadable accept payload", peer)
		}
		return accepted.ID, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		after := time.Second
		if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
			after = time.Duration(secs) * time.Second
		}
		return "", &backpressureError{status: resp.StatusCode, retryAfter: after}
	case http.StatusBadRequest:
		return "", fmt.Errorf("%w: worker %s rejected the spec: %s", errPermanent, peer, body)
	default:
		return "", fmt.Errorf("worker %s answered submit with %d", peer, resp.StatusCode)
	}
}

// statusOn long-polls one remote job's view: the worker answers once the
// job is terminal or remoteStatusWait has passed.
func (c *Coordinator) statusOn(ctx context.Context, peer, id string) (*service.JobView, error) {
	resp, body, err := exchange(ctx, c.client, http.MethodGet, peer+"/v1/jobs/"+id+"?wait="+remoteStatusWait.String(), nil, "", 10*time.Second, 1<<20)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("worker %s answered status with %d", peer, resp.StatusCode)
	}
	var view service.JobView
	if err := json.Unmarshal(body, &view); err != nil {
		return nil, err
	}
	return &view, nil
}

// resultOn fetches a finished remote job's raw result bytes.
func (c *Coordinator) resultOn(ctx context.Context, peer, id string) ([]byte, error) {
	resp, body, err := exchange(ctx, c.client, http.MethodGet, peer+"/v1/jobs/"+id+"/result", nil, "", time.Minute, maxResultBytes)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("worker %s answered result with %d", peer, resp.StatusCode)
	}
	return body, nil
}
