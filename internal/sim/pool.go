package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError attributes a panic recovered in a ForEach worker to the job
// index that raised it, so a crash deep inside a fan-out surfaces as an
// ordinary error naming the failing unit of work instead of killing the
// process.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: worker panicked on index %d: %v", e.Index, e.Value)
}

// ForEach is the worker pool: it runs fn(i) for every i in [0, n) across
// up to GOMAXPROCS goroutines, returning once all calls complete. Indices
// are handed out by an atomic counter, so work-stealing balances uneven
// jobs.
//
// Every index runs regardless of other indices' failures. A panicking fn
// does not crash the fan-out: the panic is recovered into a *PanicError.
// The lowest-index error (a recovered panic counts as one) is returned, so
// the reported failure does not depend on goroutine scheduling.
//
// After each fn(i) returns, onDone(completed, n) is called with the number
// of indices finished so far. Completion order is unspecified under
// parallel execution, but onDone calls are serialized (never concurrent)
// and completed is strictly increasing from 1 to n, so callers can publish
// progress without their own locking. A nil onDone reports nothing.
//
// Determinism is the caller's contract: fn must write its result into an
// index-addressed slot (results[i] = ...) and the caller merges the slots in
// a fixed order afterwards. Execution order across indices is unspecified;
// with GOMAXPROCS=1 (or n ≤ 1) fn runs inline in index order.
func ForEach(n int, fn func(i int) error, onDone func(completed, total int)) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	m := metrics.Load()
	var progressMu sync.Mutex
	completed := 0
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
				if m != nil {
					m.panics.Inc()
				}
			}
			if m != nil {
				m.tasks.Inc()
			}
			if onDone != nil {
				progressMu.Lock()
				completed++
				onDone(completed, n)
				progressMu.Unlock()
			}
		}()
		errs[i] = fn(i)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			call(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					call(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
