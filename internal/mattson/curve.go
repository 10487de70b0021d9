package mattson

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/cachesim"
	"repro/internal/robust"
	"repro/internal/trace"
)

// Eligible reports whether MissCurveFast can profile base exactly with the
// single-pass stack machinery. The stack algorithm models true-LRU
// replacement with whole-line write-back fills, so it covers LRU,
// non-sectored, write-back configurations — fully associative (Assoc 0,
// reuse-distance histogram) or set-associative up to 64 ways (per-set
// recency arrays; the dirty state packs into one word per set). Everything
// else (FIFO/Random/PLRU, sectored fills, write-through stores) falls back
// to the brute-force simulator.
func Eligible(base cachesim.Config) bool {
	if base.Policy != cachesim.LRU || base.SectorBytes != 0 || !base.WriteBack {
		return false
	}
	if base.LineBytes < 4 {
		// The per-set words pack the dirty flag into bit 63 and use
		// all-ones as the invalid sentinel, so tags must fit in 62 bits;
		// LineBytes ≥ 4 guarantees lineShift ≥ 2. (Narrower lines never
		// occur in practice.)
		return false
	}
	return base.Assoc >= 0 && base.Assoc <= 64
}

// MissCurveFast is the single-pass replacement for cachesim.MissCurve: it
// draws n accesses (the first warmup excluded from statistics) from gen —
// streaming, never materializing the trace — and produces the miss curve
// for every size in one profiling pass. For Eligible configurations the
// returned points are exact (identical Stats to the brute simulator for
// set-associative sweeps; identical miss counts for fully-associative
// ones, where write-back/eviction counters are left zero because they are
// not derivable size-independently in one pass). Ineligible configurations
// transparently fall back to materializing the stream and running
// cachesim.MissCurve. Simulated work is published to the obs registry
// under the usual cachesim.* counter names either way.
func MissCurveFast(gen trace.Generator, base cachesim.Config, sizes []int, warmup, n int) ([]cachesim.CurvePoint, error) {
	return MissCurveFastCtx(context.Background(), gen, base, sizes, warmup, n)
}

// MissCurveFastCtx is MissCurveFast with cancellation checked at chunk
// boundaries of the streaming pass (every chunkAccesses accesses), so a
// canceled sweep aborts within one chunk instead of draining the stream.
// Set-associative sweeps use the set-parallel driver when GOMAXPROCS and
// the set count allow it (results are bit-identical either way).
func MissCurveFastCtx(ctx context.Context, gen trace.Generator, base cachesim.Config, sizes []int, warmup, n int) ([]cachesim.CurvePoint, error) {
	return MissCurveFastParallel(ctx, gen, base, sizes, warmup, n, 0)
}

// MissCurveFastParallel is MissCurveFastCtx with the set-parallel worker
// count pinned: 0 picks GOMAXPROCS, 1 forces the serial feed, higher
// values are rounded down to a power of two and capped so each worker
// keeps at least minPartSets sets of the smallest swept size (the serial
// fallback threshold). Output is bit-identical for every worker count —
// the partition is by set index, and per-set LRU state never crosses a
// partition boundary — so the knob only trades wall-clock for goroutines.
// Fully-associative and fallback (non-Eligible) sweeps ignore it.
func MissCurveFastParallel(ctx context.Context, gen trace.Generator, base cachesim.Config, sizes []int, warmup, n, workers int) ([]cachesim.CurvePoint, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("mattson: no sizes to sweep")
	}
	if n < 0 {
		return nil, fmt.Errorf("mattson: negative access count %d", n)
	}
	if warmup < 0 {
		warmup = 0
	}
	if warmup > n {
		warmup = n
	}
	cfgs := make([]cachesim.Config, len(sizes))
	for i, sz := range sizes {
		cfg := base
		cfg.SizeBytes = sz
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("mattson: size %d: %w", sz, err)
		}
		cfgs[i] = cfg
	}
	if !Eligible(base) {
		// The general simulator needs a materialized trace; it publishes
		// its own obs counters via RunTrace's flush.
		return cachesim.MissCurveCtx(ctx, trace.Collect(gen, n), base, sizes, warmup)
	}
	if base.Assoc == 0 {
		return faCurve(ctx, gen, cfgs, warmup, n)
	}
	return setCurve(ctx, gen, cfgs, warmup, n, workers)
}

// faCurve profiles fully-associative sizes via one reuse-distance
// histogram: a single stack pass, then each size's miss count is a suffix
// sum.
func faCurve(ctx context.Context, gen trace.Generator, cfgs []cachesim.Config, warmup, n int) ([]cachesim.CurvePoint, error) {
	lineShift := uint(bits.TrailingZeros(uint(cfgs[0].LineBytes)))
	maxLines := 0
	for _, cfg := range cfgs {
		if l := cfg.Lines(); l > maxLines {
			maxLines = l
		}
	}
	p := NewProfiler(maxLines, n)
	for i := 0; i < warmup; i++ {
		if i%chunkAccesses == 0 {
			if err := robust.Err(ctx); err != nil {
				return nil, err
			}
		}
		p.Skip(gen.Next().Addr >> lineShift)
	}
	for i := warmup; i < n; i++ {
		if (i-warmup)%chunkAccesses == 0 {
			if err := robust.Err(ctx); err != nil {
				return nil, err
			}
		}
		p.Record(gen.Next().Addr >> lineShift)
	}
	hist := p.Hist()
	out := make([]cachesim.CurvePoint, len(cfgs))
	for i, cfg := range cfgs {
		misses := hist.Misses(cfg.Lines())
		st := cachesim.Stats{
			Accesses:  hist.Total(),
			Hits:      hist.Total() - misses,
			Misses:    misses,
			FillBytes: misses * uint64(cfg.LineBytes),
		}
		cachesim.PublishStats(st)
		out[i] = cachesim.CurvePoint{SizeBytes: cfg.SizeBytes, Stats: st}
	}
	return out, nil
}

// chunkAccesses is the serial feed's batch size: one buffer refill feeds
// every profiler while the chunk is hot in cache.
const chunkAccesses = 4096

// setCurve profiles set-associative sizes by streaming chunks of the
// access stream through one lean per-set LRU model per size. Profilers
// are ordered largest-first and, for 8-way sweeps, grouped into quintets
// driven by the fused kernel (runFused5), which turns set-refinement
// inclusion — a miss in a group's largest cache implies a miss in its
// four smaller ones — into an in-register skip of the followers'
// lookups. Leftover sizes run the single-profiler kernels.
//
// Every chunk goes through curveWorker.step (pack once, then the
// kernels); the feeds differ only in how chunks reach it. When workers
// resolves to 1 (see parallelWorkers), one worker owning every set runs
// the step on this goroutine. Above 1, each worker owns one partition of
// the set-index space and runs in its own goroutine; for generators
// without a Batch method the accesses are collected into double buffers,
// overlapping chunk k+1's collection with the workers' pass over chunk k.
// A Batcher (trace replays) hands chunks out as zero-copy sub-slices
// valid only until the generator advances, so that path waits out the
// in-flight chunk before advancing. Worker counters reach the profilers
// only at the end of the feed, so the hot path takes no locks. The
// per-set arrays and scratch come from a pooled arena, so repeated
// sweeps stay near zero-alloc.
func setCurve(ctx context.Context, gen trace.Generator, cfgs []cachesim.Config, warmup, n, workers int) ([]cachesim.CurvePoint, error) {
	ar := getArena()
	defer putArena(ar)
	pl := sweepPlan{profs: make([]*SetProfiler, len(cfgs))}
	profs := pl.profs
	for i, cfg := range cfgs {
		p, err := newSetProfiler(cfg, ar)
		if err != nil {
			return nil, err
		}
		profs[i] = p
	}
	// Largest-first order. Validate forces power-of-two set counts, so any
	// two same-associativity profilers in this order are nested (equal
	// sizes included) and every prefix element includes every later one.
	order := make([]int, len(profs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return cfgs[order[a]].SizeBytes > cfgs[order[b]].SizeBytes
	})
	i := 0
	if profs[0].assoc == 8 {
		for ; i+5 <= len(order); i += 5 {
			pl.fused = append(pl.fused, [5]int(order[i:i+5]))
		}
	}
	pl.single = order[i:]
	minSets := int(profs[order[len(order)-1]].setMask) + 1

	var (
		ws       []*curveWorker
		chunk    int
		dispatch func([]trace.Access)
		wait     = func() {}
	)
	if w := parallelWorkers(workers, minSets); w > 1 {
		pr := startWorkers(pl, w, minSets, ar)
		defer pr.stop()
		ws, chunk, dispatch, wait = pr.workers, parallelChunk, pr.broadcast, pr.wait
	} else {
		cw := &curveWorker{plan: pl, buf: ar.grab(chunkAccesses), accs: ar.grabParts(len(profs))}
		ws, chunk, dispatch = []*curveWorker{cw}, chunkAccesses, cw.step
	}
	batcher, _ := gen.(trace.Batcher)
	var bufs [2][]trace.Access
	if batcher == nil {
		// The serial step returns before the next collection starts, so
		// one buffer serves it (bufs[1] aliases bufs[0]); the parallel
		// feed double-buffers.
		all := ar.grabAccess(min(len(ws), 2) * chunk)
		bufs[0], bufs[1] = all[:chunk], all[len(all)-chunk:]
	}
	cur := 0
	// wait returns at once when no chunk is in flight, so each feed ends
	// (or aborts) with every dispatched chunk done.
	feed := func(count int) error {
		defer wait()
		for count > 0 {
			if err := robust.Err(ctx); err != nil {
				return err
			}
			m := min(count, chunk)
			var batch []trace.Access
			if batcher != nil {
				wait()
				batch = batcher.Batch(m)
			} else {
				batch = trace.CollectInto(gen, bufs[cur][:m])
				wait()
			}
			dispatch(batch)
			cur ^= 1
			count -= len(batch)
		}
		return nil
	}
	if err := feed(warmup); err != nil {
		return nil, err
	}
	for _, cw := range ws {
		clear(cw.accs)
	}
	if err := feed(n - warmup); err != nil {
		return nil, err
	}
	for _, cw := range ws {
		for i, acc := range cw.accs {
			profs[i].addPart(acc)
		}
	}
	return curvePoints(cfgs, profs), nil
}

// curvePoints snapshots the profilers' stats into the result shape,
// publishing each size's simulated traffic to the obs registry.
func curvePoints(cfgs []cachesim.Config, profs []*SetProfiler) []cachesim.CurvePoint {
	out := make([]cachesim.CurvePoint, len(cfgs))
	for i, p := range profs {
		st := p.Stats()
		cachesim.PublishStats(st)
		out[i] = cachesim.CurvePoint{SizeBytes: cfgs[i].SizeBytes, Stats: st}
	}
	return out
}
