package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sinet-io/sinet/internal/service"
	"github.com/sinet-io/sinet/internal/tracing"
)

// runRec is one Runner invocation seen by the traced run's wrapper.
type runRec struct {
	trace      tracing.TraceID // the job's trace, shared with the client's span
	node       string
	kind       string
	shard      bool
	entry, ret time.Time
	// checkpoint is the time spent inside the server's checkpoint callback
	// (marshal already done; journal append and fsync inside), units and
	// unitBytes what it was handed.
	checkpoint time.Duration
	units      int
	unitBytes  int
	// progress is the time spent inside the server's progress callback
	// (heartbeat plus SSE publish).
	progress time.Duration
	err      error
}

// probe is the traced run's view into the daemons from outside: a
// Config.Runner wrapper around service.Run (and the RunContext hooks it
// passes on) and a Config.JournalHook counting journal writes and syncs.
type probe struct {
	mu     sync.Mutex
	runs   []runRec
	writes atomic.Int64
	syncs  atomic.Int64
}

func (p *probe) journalHook(op string) error {
	switch op {
	case "write":
		p.writes.Add(1)
	case "sync":
		p.syncs.Add(1)
	}
	return nil
}

func (p *probe) runner(node string, inner service.RunnerFunc) service.RunnerFunc {
	return func(ctx context.Context, spec *service.JobSpec, rc service.RunContext) (any, error) {
		_, sc := tracing.FromContext(ctx)
		r := runRec{trace: sc.TraceID, node: node, kind: spec.Kind, shard: spec.Shard != nil, entry: time.Now()}
		// Checkpoint calls are serialized by contract; progress calls are
		// serialized per phase but phases may overlap, hence the atomic.
		var progress atomic.Int64
		wrapped := rc
		if save := rc.Checkpoint; save != nil {
			wrapped.Checkpoint = func(phase string, index, total int, unit []byte) {
				t := time.Now()
				save(phase, index, total, unit)
				r.checkpoint += time.Since(t)
				r.units++
				r.unitBytes += len(unit)
			}
		}
		if report := rc.Progress; report != nil {
			wrapped.Progress = func(phase string, completed, total int) {
				t := time.Now()
				report(phase, completed, total)
				progress.Add(int64(time.Since(t)))
			}
		}
		res, err := inner(ctx, spec, wrapped)
		r.ret = time.Now()
		r.progress = time.Duration(progress.Load())
		r.err = err
		p.mu.Lock()
		p.runs = append(p.runs, r)
		p.mu.Unlock()
		return res, err
	}
}

// runsSince returns the successful runs that began at or after t.
func (p *probe) runsSince(t time.Time) []runRec {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []runRec
	for _, r := range p.runs {
		if r.err == nil && !r.entry.Before(t) {
			out = append(out, r)
		}
	}
	return out
}
