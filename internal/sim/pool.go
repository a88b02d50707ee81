package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError attributes a panic recovered in a Phase worker to the unit
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

// forEach is the worker pool behind Phase, which documents its contract.
// Indices are handed out by an atomic counter, so work-stealing balances
// uneven units, and progress calls are serialized by a lock.
func forEach(name string, n int, fn func(i int) error, progress func(phase string, completed, total int)) error {
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
			if progress != nil {
				progressMu.Lock()
				completed++
				progress(name, completed, n)
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
