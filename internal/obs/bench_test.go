package obs

import "testing"

// BenchmarkDisabledCounterInc is the acceptance benchmark for the no-op
// sink pattern: a nil counter increment — what every instrumented hot
// path pays when metrics are off — must cost ~1 ns and 0 allocs/op.
func BenchmarkDisabledCounterInc(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkDisabledRegistryLookup measures the full disabled chain as
// written at instrumentation sites: Default() load, nil-registry lookup,
// nil-counter increment.
func BenchmarkDisabledRegistryLookup(b *testing.B) {
	prev := Default()
	SetDefault(nil)
	defer SetDefault(prev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Default().Counter("cachesim.accesses").Inc()
	}
}

// BenchmarkDisabledHistogramObserve covers the histogram no-op path.
func BenchmarkDisabledHistogramObserve(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i))
	}
}

// BenchmarkEnabledCounterInc is the enabled-path cost: one atomic add.
func BenchmarkEnabledCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkEnabledHistogramObserve is the enabled histogram cost: a
// binary search over bounds plus three atomic ops.
func BenchmarkEnabledHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h", []float64{1, 2, 4, 8, 16, 32, 64, 128})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 255))
	}
}

// BenchmarkEnabledRegistryLookup is the cost of re-fetching a counter by
// name each call instead of caching it — the pattern used by code whose
// call frequency is low (solvers), not per-access hot loops.
func BenchmarkEnabledRegistryLookup(b *testing.B) {
	r := NewRegistry()
	r.Counter("numeric.bracket.failures")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("numeric.bracket.failures").Inc()
	}
}

// BenchmarkRegistrySpan is one registry span open/close, the cost every
// instrumented layer (an experiment, an engine evaluation, an optimizer
// search) pays per call when a registry is installed. The log is capped
// as a long-lived server caps it, so the benchmark runs in bounded
// memory.
func BenchmarkRegistrySpan(b *testing.B) {
	r := NewRegistry()
	r.SetSpanCap(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.StartSpan("s")
		sp.End()
	}
}

// BenchmarkRegistrySpanParallel is BenchmarkRegistrySpan from every P at
// once, as concurrent requests open spans on a serving replica. A span
// whose allocation read stopped the world would serialize here.
func BenchmarkRegistrySpanParallel(b *testing.B) {
	r := NewRegistry()
	r.SetSpanCap(1024)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			sp := r.StartSpan("s")
			sp.End()
		}
	})
}
