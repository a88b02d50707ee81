package obs

import (
	"io"
	"testing"
)

// The counter/gauge/histogram update paths sit inside the engine's hot
// loops (one Inc per SGP4 call), so these benchmarks track both latency
// and the zero-allocation contract via -benchmem.

func BenchmarkCounterInc(b *testing.B) {
	c := New().Counter("bench_counter_total", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := New().Counter("bench_counter_total", "bench")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := New().Histogram("bench_seconds", "bench", DurationBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.042)
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := New()
	for _, code := range []string{"200", "202", "400", "429", "500"} {
		r.CounterVec("bench_requests_total", "bench", "code").With(code).Add(7)
	}
	r.Histogram("bench_seconds", "bench", DurationBuckets).Observe(0.3)
	r.Gauge("bench_depth", "bench").Set(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
