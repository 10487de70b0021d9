package obs

import (
	"context"
	"time"
)

// SpanRecord is one completed span: a named region of a run with its
// wall-clock duration and the process-wide allocation activity that
// happened while it was open. Allocation figures are deltas of the
// runtime/metrics heap-allocation counters (readHeapAllocs), a read that
// never stops the world. They are process-wide, so under concurrency
// they include other goroutines' allocations — treat them as attribution
// hints, not exact per-span costs. The runtime publishes small-object
// counts as each P's allocation cache refills, so a span that allocates
// less than a cached span's worth can read 0; only a MemStats read,
// which stops the world to flush those caches, is exact.
type SpanRecord struct {
	Name       string
	Start      time.Time
	Wall       time.Duration
	AllocBytes uint64 // /gc/heap/allocs:bytes delta over the span (0 below one cache refill)
	Mallocs    uint64 // /gc/heap/allocs:objects + /gc/heap/tiny/allocs:objects delta (same floor)
}

// Span is an open timing region. Obtain one from StartSpan or
// Registry.StartSpan; close it with End. A nil *Span is a valid no-op,
// so callers never need to branch on whether collection is enabled.
type Span struct {
	reg   *Registry  // nil: no registry record
	ts    *TraceSpan // nil: no trace stage
	name  string
	start time.Time
	a0    heapAllocs
}

// StartSpan is the one span call of an instrumented layer. It opens a
// stage of ctx's trace when ctx carries one, and a record in the
// process-default registry when one is installed; the two share one
// start time and one allocation read. The returned context parents
// nested trace spans under this one. With neither a trace nor a
// registry it returns (ctx, nil), and the later End is a free no-op.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	reg := Default()
	ts := startSpan(ctx, name)
	if ts == nil && reg == nil {
		return ctx, nil
	}
	sp := &Span{reg: reg, ts: ts, name: name}
	if ts != nil {
		ctx = context.WithValue(ctx, spanKey{}, ts.id)
		sp.start = ts.start
	} else {
		sp.start = time.Now()
	}
	if reg != nil {
		sp.a0 = readHeapAllocs()
	}
	return ctx, sp
}

// StartSpan opens a span recorded into r when ended. A nil registry
// returns a nil (no-op) span.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{reg: r, name: name, start: time.Now(), a0: readHeapAllocs()}
}

// End closes the span, recording it into its trace and its registry.
// No-op on a nil receiver.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	var a1 heapAllocs
	if s.reg != nil || (s.ts != nil && s.ts.tr.allocDetail) {
		a1 = readHeapAllocs()
	}
	s.ts.end(now, a1.bytes)
	if s.reg == nil {
		return
	}
	s.reg.record(SpanRecord{
		Name:       s.name,
		Start:      s.start,
		Wall:       now.Sub(s.start),
		AllocBytes: a1.bytes - s.a0.bytes,
		Mallocs:    a1.objects - s.a0.objects,
	})
}

// record appends rec to the span log.
func (r *Registry) record(rec SpanRecord) {
	r.spanMu.Lock()
	if r.spanCap > 0 && len(r.spans) >= r.spanCap {
		// Ring overwrite: drop the oldest span so a long-lived process
		// keeps the newest spanCap records in bounded memory.
		r.spans[r.spanHead] = rec
		r.spanHead = (r.spanHead + 1) % r.spanCap
		r.spanDropped++
	} else {
		r.spans = append(r.spans, rec)
	}
	r.spanMu.Unlock()
}
