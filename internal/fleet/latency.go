package fleet

import (
	"slices"
	"sync"
	"time"
)

// latencyWindow is the per-replica sample ring size feeding the hedge
// delay quantile. Small on purpose: hedging should track the replica's
// *current* latency regime, and 64 samples of recent history adapt
// within a burst.
const latencyWindow = 64

// hedgeMinSamples gates adaptive hedging: below this many observations
// the quantile is noise and no hedge fires.
const hedgeMinSamples = 8

// latencyTracker is a fixed ring of recent request latencies for one
// replica, answering quantile queries for the hedge trigger.
type latencyTracker struct {
	mu   sync.Mutex
	buf  [latencyWindow]time.Duration
	next int
	n    int // valid samples (≤ latencyWindow)
}

// Observe records one successful-request latency.
func (t *latencyTracker) Observe(d time.Duration) {
	t.mu.Lock()
	t.buf[t.next] = d
	t.next = (t.next + 1) % len(t.buf)
	if t.n < len(t.buf) {
		t.n++
	}
	t.mu.Unlock()
}

// Quantile returns the q-quantile (0 < q ≤ 1) of the window, or
// (0, false) with fewer than hedgeMinSamples observations. The gateway
// asks on every proxied request, so it sorts a copy on the stack and
// allocates nothing.
func (t *latencyTracker) Quantile(q float64) (time.Duration, bool) {
	var buf [latencyWindow]time.Duration
	t.mu.Lock()
	n := t.n
	copy(buf[:], t.buf[:n])
	t.mu.Unlock()
	if n < hedgeMinSamples {
		return 0, false
	}
	samples := buf[:n]
	slices.Sort(samples)
	idx := int(q*float64(len(samples))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	return samples[idx], true
}
