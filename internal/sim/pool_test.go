package sim

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		visits := make([]int32, n)
		forEach("t", n, func(i int) error { atomic.AddInt32(&visits[i], 1); return nil }, nil)
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
	}
}

func TestForEachMoreWorkersThanJobs(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single-proc environment")
	}
	var count int32
	forEach("t", 1, func(i int) error { atomic.AddInt32(&count, 1); return nil }, nil)
	if count != 1 {
		t.Fatalf("ran %d times, want 1", count)
	}
}

func TestForEachErrProgressReportsEveryCompletion(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100} {
		var got, totals []int
		err := forEach("t", n, func(int) error { return nil }, func(_ string, completed, total int) {
			got = append(got, completed)
			totals = append(totals, total)
		})
		if err != nil {
			t.Fatalf("n=%d: unexpected error %v", n, err)
		}
		for _, total := range totals {
			if total != n {
				t.Fatalf("n=%d: onDone reported total %d", n, total)
			}
		}
		// Serialized and strictly increasing: appending without a lock above
		// is only safe because forEach guarantees progress calls
		// never run concurrently; the race detector enforces that here.
		if len(got) != n {
			t.Fatalf("n=%d: onDone called %d times", n, len(got))
		}
		for i, c := range got {
			if c != i+1 {
				t.Fatalf("n=%d: completed sequence %v not strictly increasing from 1", n, got)
			}
		}
	}
}

func TestForEachErrProgressCountsFailedIndices(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := forEach("t", 8, func(i int) error {
		if i%2 == 0 {
			return boom
		}
		if i == 5 {
			panic("kaput")
		}
		return nil
	}, func(_ string, completed, total int) { calls = completed })
	if err != boom {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if calls != 8 {
		t.Fatalf("failed and panicking indices must still count as completed; got %d/8", calls)
	}
}

func TestForEachErrProgressNilCallback(t *testing.T) {
	var count int32
	if err := forEach("t", 50, func(int) error { atomic.AddInt32(&count, 1); return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("ran %d times, want 50", count)
	}
}

func TestForEachErrReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := forEach("t", 10, func(i int) error {
		switch i {
		case 3:
			return errB
		case 7:
			return errA
		}
		return nil
	}, nil)
	if err != errB {
		t.Fatalf("got %v, want the lowest-index error %v", err, errB)
	}
	if err := forEach("t", 5, func(int) error { return nil }, nil); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
}
