package fleet

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// quantileRef is the tracker's original quantile rule over a plain slice:
// sort a copy, take index ⌊q·n⌋−1 clamped into range.
func quantileRef(window []time.Duration, q float64) (time.Duration, bool) {
	if len(window) < hedgeMinSamples {
		return 0, false
	}
	samples := append([]time.Duration(nil), window...)
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := int(q*float64(len(samples))) - 1
	idx = max(0, min(idx, len(samples)-1))
	return samples[idx], true
}

// TestLatencyQuantileMatchesReference feeds seeded latency streams of
// every fill level, including ring wrap-around, and checks each quantile
// the gateway can ask for against the reference rule.
func TestLatencyQuantileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	qs := []float64{0.01, 0.1, 0.5, 0.9, DefaultHedgeQuantile, 0.99, 1}
	for _, observed := range []int{0, 1, hedgeMinSamples - 1, hedgeMinSamples, 17, latencyWindow - 1, latencyWindow, latencyWindow + 1, 3*latencyWindow + 5} {
		var tr latencyTracker
		var all []time.Duration
		for i := 0; i < observed; i++ {
			d := time.Duration(rng.Intn(5000)) * time.Microsecond
			if i%7 == 3 && i > 0 {
				d = all[i-1] // duplicates
			}
			tr.Observe(d)
			all = append(all, d)
		}
		window := all[max(0, len(all)-latencyWindow):]
		for _, q := range qs {
			got, gotOK := tr.Quantile(q)
			want, wantOK := quantileRef(window, q)
			if got != want || gotOK != wantOK {
				t.Errorf("observed %d, q=%g: Quantile = (%v, %v), reference (%v, %v)", observed, q, got, gotOK, want, wantOK)
			}
		}
	}
}

// TestLatencyQuantileAllocatesNothing: the hedge trigger runs on every
// proxied request, so a full-window quantile must not allocate.
func TestLatencyQuantileAllocatesNothing(t *testing.T) {
	var tr latencyTracker
	for i := 0; i < 2*latencyWindow; i++ {
		tr.Observe(time.Duration(i*7919%1000) * time.Microsecond)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := tr.Quantile(DefaultHedgeQuantile); !ok {
			t.Fatal("full window reported too few samples")
		}
	}); allocs != 0 {
		t.Errorf("Quantile allocates %v times per call, want 0", allocs)
	}
}
