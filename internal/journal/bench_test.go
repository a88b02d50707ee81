package journal

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkJournalAppend measures one checkpoint-sized append, durable
// (Append) and write-behind (AppendBehind), from 1 and 8 concurrent
// appenders. It reports the fsyncs each append cost, counted through
// the Hook: group commit drives it below 1 for concurrent durable
// appenders, and write-behind appends issue none. The file lives in the
// benchmark's temporary directory, so ns/op depends on that filesystem's
// fsync.
func BenchmarkJournalAppend(b *testing.B) {
	unit := make([]byte, 1024)
	for i := range unit {
		unit[i] = byte('a' + i%26)
	}
	rec := Record{Op: OpCheckpoint, JobID: "j000001-0123456789ab", Phase: "contacts", Total: 64, Unit: unit}
	for _, mode := range []string{"durable", "behind"} {
		for _, appenders := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/appenders=%d", mode, appenders), func(b *testing.B) {
				var syncs atomic.Int64
				j, _, err := Open(filepath.Join(b.TempDir(), "bench.journal"), Options{Hook: func(op string) error {
					if op == "sync" {
						syncs.Add(1)
					}
					return nil
				}})
				if err != nil {
					b.Fatal(err)
				}
				defer j.Close()
				write := j.Append
				if mode == "behind" {
					write = j.AppendBehind
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < appenders; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := w; i < b.N; i += appenders {
							if err := write(rec); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(syncs.Load())/float64(b.N), "syncs/append")
			})
		}
	}
}
