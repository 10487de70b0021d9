package mattson

import (
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/trace"
)

// This file holds the chunk step both sweep feeds run and the
// set-parallel worker pool. Cache sets are independent under any per-set
// replacement policy: an access touches exactly the set its line address
// indexes, and no profiler state crosses set boundaries. The swept sizes
// share one base configuration, so their power-of-two set counts are
// nested, and an access's set index in every profiler agrees modulo the
// smallest set count S_min. Partitioning the S_min index space into
// contiguous ranges therefore partitions the sets of *every* profiler at
// once, whatever the associativity: worker w owns the accesses whose
// (lineAddr & (S_min-1)) falls in its range, and those accesses touch
// only w's sets in each profiler, in the original stream order. The
// parallel sweep is exact — bit-identical Stats to the serial feed for
// any worker count — not an approximation.
//
// Mechanically, each chunk goes through curveWorker.step: pack and
// filter the raw accesses down to the worker's partition in one loop
// (partition.pack), then run the fused five-size kernel and the
// single-profiler kernels over the compacted sub-stream, accumulating
// counters into worker-local partStats. The serial feed calls step on
// the feeding goroutine with one worker whose zero partition owns every
// set. The parallel feed broadcasts each raw batch to W workers, each in
// its own goroutine; collecting the next chunk overlaps the workers'
// pass over the current one, and each worker reads the shared batch once
// and writes only its private scratch. Counters reach the profilers'
// Stats only at the end of the sweep, on the main goroutine.

// minPartSets is the serial-fallback threshold: each worker must own at
// least this many sets of the smallest profiler, or partitions get too
// narrow for the filter cost to amortize and the sweep stays serial.
const minPartSets = 8

// parallelChunk is the broadcast batch size for the parallel feed —
// large enough to amortize the per-chunk barrier, well under
// fusedMaxChunk so the packed 20-bit counter fields cannot overflow.
const parallelChunk = 32768

// parallelWorkers resolves the worker count for a sweep whose smallest
// profiler has minSets sets: requested (0 = GOMAXPROCS) rounded down to a
// power of two — partitions must divide the power-of-two set space
// evenly — and capped so every worker keeps at least minPartSets sets.
// The result is ≥ 1; 1 means the serial feed runs.
func parallelWorkers(requested, minSets int) int {
	if requested == 1 || minSets <= 0 {
		return 1
	}
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	cap := minSets / minPartSets
	if requested > cap {
		requested = cap
	}
	if requested < 2 {
		return 1
	}
	// Round down to a power of two.
	return 1 << (bits.Len(uint(requested)) - 1)
}

// partition selects one contiguous range of the smallest profiler's set
// index space: the accesses with (lineAddr & mask) >> shift == id. The
// zero partition owns every access.
type partition struct {
	mask  uint64 // S_min - 1
	shift uint   // log2(S_min / workers)
	id    uint64 // this worker's partition index
}

// pack is the one access encoder: it writes the accesses of batch that
// the partition owns into dst (cap(dst) ≥ len(batch)) as the words every
// kernel reads — lineAddr<<1 | write, one word per access with the dirty
// flag a single shift away (w<<63) — and returns the filled prefix. Every
// word is stored and kept with a branchless append: the ownership test
// is data-dependent and would mispredict ~(W-1)/W of the time as a
// branch.
func (pt partition) pack(dst []uint64, batch []trace.Access, lineShift uint) []uint64 {
	mask, shift, id := pt.mask, pt.shift&63, pt.id
	lineShift &= 63
	dst = dst[:len(batch)]
	j := 0
	for i := 0; i < len(batch); i++ {
		a := batch[i]
		x := (a.Addr>>lineShift)<<1 | b2u(a.Write)
		dst[j] = x
		j += int(b2u(((x>>1)&mask)>>shift == id))
	}
	return dst[:j]
}

// sweepArena is a pooled slab allocator for one sweep's transient arrays:
// per-set ways blocks, per-worker packed scratch and counters, and the
// access-collection buffers. Sweeps allocate the same shapes every call,
// so recycling the slabs keeps repeated sweeps (benchmark iterations,
// batch queries) near zero-alloc in steady state. Grabbed words are
// dirty; callers initialize every word they later read.
type sweepArena struct {
	words  slab[uint64]
	parts  slab[partStats]
	access []trace.Access
}

// arenas is the free list of idle sweep arenas: at most GOMAXPROCS of
// them, one per sweep that can run at once. A sync.Pool would be emptied
// by every GC cycle, making the first sweep after a collection
// reallocate all its slabs.
var arenas struct {
	mu   sync.Mutex
	free []*sweepArena
}

func getArena() *sweepArena {
	var a *sweepArena
	arenas.mu.Lock()
	if n := len(arenas.free); n > 0 {
		a = arenas.free[n-1]
		arenas.free = arenas.free[:n-1]
	}
	arenas.mu.Unlock()
	if a == nil {
		a = &sweepArena{}
	}
	a.words.used, a.parts.used = 0, 0
	return a
}

func putArena(a *sweepArena) {
	arenas.mu.Lock()
	if len(arenas.free) < runtime.GOMAXPROCS(0) {
		arenas.free = append(arenas.free, a)
	}
	arenas.mu.Unlock()
}

// slab is a bump allocator over one pooled array. When the array runs
// out, a fresh one twice the demand replaces it — earlier grabs keep
// referencing the old array until the sweep ends, and the free list
// retains only the newest, largest one for the next call.
type slab[T any] struct {
	buf  []T
	used int
}

func (s *slab[T]) grab(n int) []T {
	if s.used+n > len(s.buf) {
		s.buf = make([]T, max(2*(s.used+n), len(s.buf)))
		s.used = 0
	}
	out := s.buf[s.used : s.used+n : s.used+n]
	s.used += n
	return out
}

// grab returns n uninitialized words. A nil arena degrades to a plain
// allocation (the standalone NewSetProfiler path).
func (a *sweepArena) grab(n int) []uint64 {
	if a == nil {
		return make([]uint64, n)
	}
	return a.words.grab(n)
}

// grabParts returns n zeroed counter accumulators.
func (a *sweepArena) grabParts(n int) []partStats {
	s := a.parts.grab(n)
	clear(s)
	return s
}

// grabAccess returns an n-element access buffer, reusing the pooled one
// when it is large enough.
func (a *sweepArena) grabAccess(n int) []trace.Access {
	if cap(a.access) < n {
		a.access = make([]trace.Access, n)
	}
	return a.access[:n]
}

// sweepPlan is one set-associative sweep's kernel schedule: its
// profilers, the quintets of strictly nested 8-way profilers the fused
// kernel drives (largest first), and the profilers left to the
// single-profiler kernels, all as indices into profs.
type sweepPlan struct {
	profs  []*SetProfiler
	fused  [][5]int
	single []int
}

// curveWorker runs the chunk step for one partition of a sweep,
// accumulating each profiler's counters in accs (indexed like
// plan.profs). in carries broadcast batches to a parallel worker; the
// serial feed leaves it nil and calls step directly.
type curveWorker struct {
	plan sweepPlan
	part partition
	buf  []uint64
	accs []partStats
	in   chan []trace.Access
}

// step runs one raw access batch (len ≤ cap(buf)) through the sweep:
// pack-filter it down to the worker's partition, then run the fused
// quintets and the single profilers over the compacted sub-stream. The
// ways arrays are shared across workers but each set block is written by
// exactly one worker (the partition invariant), so no synchronization
// beyond the per-chunk barrier is needed.
func (w *curveWorker) step(batch []trace.Access) {
	ps := w.plan.profs
	sub := w.part.pack(w.buf, batch, ps[0].lineShift)
	for _, g := range w.plan.fused {
		c := runFused5(sub, ps[g[0]], ps[g[1]], ps[g[2]], ps[g[3]], ps[g[4]])
		for k, pi := range g {
			w.accs[pi].add(c[k])
		}
	}
	for _, pi := range w.plan.single {
		w.accs[pi].add(ps[pi].runSingle(sub))
	}
}

// parallelRun drives the worker pool for one sweep.
type parallelRun struct {
	workers []*curveWorker
	wg      sync.WaitGroup
}

// startWorkers builds W workers over the plan's profilers, one per
// partition of the minSets-set index space, and starts each one's step
// loop in its own goroutine. Scratch comes from ar.
func startWorkers(pl sweepPlan, w, minSets int, ar *sweepArena) *parallelRun {
	pr := &parallelRun{workers: make([]*curveWorker, w)}
	pshift := uint(bits.TrailingZeros(uint(minSets / w)))
	for i := range pr.workers {
		cw := &curveWorker{
			plan: pl,
			part: partition{mask: uint64(minSets - 1), shift: pshift, id: uint64(i)},
			buf:  ar.grab(parallelChunk),
			accs: ar.grabParts(len(pl.profs)),
			in:   make(chan []trace.Access, 1),
		}
		pr.workers[i] = cw
		go func() {
			for batch := range cw.in {
				cw.step(batch)
				pr.wg.Done()
			}
		}()
	}
	return pr
}

// broadcast hands one raw access batch to every worker and returns once
// all of them are scheduled to pick it up; wait() blocks until they
// finish.
func (pr *parallelRun) broadcast(batch []trace.Access) {
	pr.wg.Add(len(pr.workers))
	for _, w := range pr.workers {
		w.in <- batch
	}
}

func (pr *parallelRun) wait() { pr.wg.Wait() }

// stop shuts the workers down. Safe after any number of broadcasts as
// long as wait() has been called since the last one.
func (pr *parallelRun) stop() {
	for _, w := range pr.workers {
		close(w.in)
	}
}
