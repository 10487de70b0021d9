package scaling

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/technique"
)

// Fingerprint is the canonical identity of a technique stack for solver
// memoization: its resolved parameter set. Two stacks with equal
// Fingerprints produce identical traffic curves and therefore identical
// solver answers.
type Fingerprint struct {
	Params technique.Params
}

// FingerprintOf resolves a stack to its canonical fingerprint.
func FingerprintOf(st technique.Stack) Fingerprint {
	return Fingerprint{Params: st.Params()}
}

// FNV-1a parameters shared by every fingerprint-keyed shard layout in
// the repo: the solver cache below, the serve tier's response LRU, and
// the fleet gateway's replica ring all key off the same function, so
// "which shard/replica owns this fingerprint" has one answer at every
// level of the system.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// HashString is FNV-1a over s with the high bits folded down: the routing
// function for anything keyed by a canonical spec fingerprint, and
// deterministic across processes, so a replica ring and a lock-shard
// array computed from the same fingerprint agree forever.
func HashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = fnvMix(h, uint64(s[i]))
	}
	return h ^ h>>32
}

func fnvMix(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

// fmix64 is MurmurHash3's 64-bit finalizer: every input bit reaches
// every output bit, so the memo's low set-index bits see the whole key.
func fmix64(h uint64) uint64 {
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// DefaultEvalCacheShards is the shard count NewEvalCache uses: enough
// that a few dozen engine workers rarely collide.
const DefaultEvalCacheShards = 16

// EvalCache memoizes successful solves for the scenario engine's batch
// queries at two levels: wall-level SupportableCores roots
// (SupportableCoresFP) and whole constraint solutions (SolveConstraintFP).
// The key is the canonical stack fingerprint plus everything else that
// determines the answer: baseline, α, chip area, and budget (or
// constraint and generation). It is safe for concurrent use. Errors are
// never cached: domain violations fail fast before any root finding, and
// injected or transient faults must not poison later retries.
//
// The cache is bounded: each level holds at most memoCap (4096) entries
// inline in fixed slots — 176 B per wall-level slot, 216 B per solution
// slot plus the solution's headroom slice — so a full cache holds about
// 1.6 MB of tables whatever the traffic. Tables grow by doubling from
// one 8-way set per shard, so a per-call cache costs only what it
// stores. Once a shard holds its share of the cap, an insert into a full
// set evicts that set's oldest entry.
type EvalCache struct {
	walls memo[float64]
	sols  memo[Solution]

	hits, misses atomic.Uint64
	obsHits      *obs.Counter
	obsMisses    *obs.Counter
}

// NewEvalCache returns an empty cache with DefaultEvalCacheShards shards,
// wired to the process obs registry (scaling.cache.hits /
// scaling.cache.misses count across all solves and all shards).
func NewEvalCache() *EvalCache {
	return NewEvalCacheShards(0)
}

// NewEvalCacheShards is NewEvalCache with the shard count pinned: 0 means
// DefaultEvalCacheShards, other values round up to a power of two, at
// most 512. NewEvalCacheShards(1) is the single-lock layout contention
// benchmarks compare against. The capacity does not depend on the shard
// count.
func NewEvalCacheShards(n int) *EvalCache {
	if n <= 0 {
		n = DefaultEvalCacheShards
	}
	n = min(1<<bits.Len(uint(n-1)), memoCap/memoWays) // a set per shard at least
	return &EvalCache{
		walls:     newMemo[float64](n),
		sols:      newMemo[Solution](n),
		obsHits:   obs.Default().Counter("scaling.cache.hits"),
		obsMisses: obs.Default().Counter("scaling.cache.misses"),
	}
}

// SupportableCoresCtx is Solver.SupportableCoresCtx memoized on the
// canonical stack fingerprint. A nil receiver degrades to the uncached
// solver call.
func (c *EvalCache) SupportableCoresCtx(ctx context.Context, s Solver, st technique.Stack, n2, budget float64) (float64, error) {
	return c.SupportableCoresFP(ctx, s, FingerprintOf(st), st, n2, budget)
}

// SupportableCoresFP is SupportableCoresCtx with the stack's fingerprint
// precomputed by the caller. Batch evaluators resolving the same stack at
// many axis points fingerprint it once instead of per cell (resolving
// Params dominates a cache hit otherwise). fp must be FingerprintOf(st).
func (c *EvalCache) SupportableCoresFP(ctx context.Context, s Solver, fp Fingerprint, st technique.Stack, n2, budget float64) (float64, error) {
	if c == nil {
		return s.SupportableCoresCtx(ctx, st, n2, budget)
	}
	base := s.Base()
	k := memoKey{fp: fp, baseP: base.P, baseC: base.C, alpha: s.Alpha(), n2: n2, budget: budget}
	h := k.hash()
	if v, ok := c.walls.get(&k, h); ok {
		c.hits.Add(1)
		c.obsHits.Inc()
		return v, nil
	}
	c.misses.Add(1)
	c.obsMisses.Inc()
	// An actual solve is the stage worth attributing in a request trace;
	// cache hits return in well under a microsecond and stay unrecorded.
	sctx, tsp := obs.StartTraceSpan(ctx, "scaling.solve")
	v, err := s.SupportableCoresCtx(sctx, st, n2, budget)
	tsp.End()
	if err != nil {
		return 0, err
	}
	return c.walls.put(&k, h, v), nil
}

// SolveConstraintFP is Constraint.SolveFP memoized on (stack fingerprint,
// baseline, α, chip, constraint fingerprint, generation). The memo sits
// above the per-wall solver cache: a solution hit skips every wall, a miss
// delegates to the walls (whose own traffic solves still share wall-level
// entries — an energy wall and a bandwidth wall at the same effective
// budget memoize once). Counters record exactly one event per call at the
// outermost level that answered, so legacy single-wall evaluations keep
// their historical hit/miss accounting. Errors are never cached.
func (c *EvalCache) SolveConstraintFP(ctx context.Context, s Solver, fp Fingerprint, st technique.Stack, n2 float64, cons Constraint, gen int) (Solution, error) {
	if c == nil {
		return cons.SolveFP(ctx, nil, s, fp, st, n2, gen)
	}
	base := s.Base()
	k := memoKey{fp: fp, baseP: base.P, baseC: base.C, alpha: s.Alpha(), n2: n2, cons: cons.Fingerprint(), gen: gen}
	h := k.hash()
	if sol, ok := c.sols.get(&k, h); ok {
		c.hits.Add(1)
		c.obsHits.Inc()
		return sol.copyWalls(), nil
	}
	sol, err := cons.SolveFP(ctx, c, s, fp, st, n2, gen)
	if err != nil {
		return Solution{}, err
	}
	return c.sols.put(&k, h, sol).copyWalls(), nil
}

// copyWalls returns the solution with a private headroom slice, so cached
// solutions cannot be mutated through a caller's copy.
func (sol Solution) copyWalls() Solution { sol.Walls = slices.Clone(sol.Walls); return sol }

// MaxCoresCtx is Solver.MaxCoresCtx through the cache: the exact solution
// is memoized once and floored with the shared CoresFromExact rule, so a
// cores query after an exact query costs no extra solve (and vice versa).
func (c *EvalCache) MaxCoresCtx(ctx context.Context, s Solver, st technique.Stack, n2, budget float64) (int, error) {
	p, err := c.SupportableCoresCtx(ctx, s, st, n2, budget)
	if err != nil {
		return 0, err
	}
	return CoresFromExact(p), nil
}

// Stats returns the cache's hit and miss counts.
func (c *EvalCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Shards returns the shard count (introspection and tests).
func (c *EvalCache) Shards() int { return c.Info(0).Shards }

// Len returns the number of memoized entries across both levels.
func (c *EvalCache) Len() int { return c.Info(0).Entries }

// Purge drops every entry at both levels with its table and returns how
// many were held; hit/miss counters describe lifetime traffic and stay.
// Shards purge one at a time, so a purge under eval load never blocks
// them all at once.
func (c *EvalCache) Purge() int {
	if c == nil {
		return 0
	}
	return c.walls.purge() + c.sols.purge()
}

// StackInfo aggregates the cache's view of one technique-stack
// fingerprint: how many distinct (chip, α, budget) keys share it and
// their combined hit count.
type StackInfo struct {
	Stack   string `json:"stack"`   // resolved technique.Params, display form
	Entries int    `json:"entries"` // distinct solver keys under this stack
	Hits    uint64 `json:"hits"`
}

// Info summarizes the cache for introspection endpoints.
type Info struct {
	Entries     int         `json:"entries"`
	Shards      int         `json:"shards"`
	Hits        uint64      `json:"hits"`
	Misses      uint64      `json:"misses"`
	ApproxBytes uint64      `json:"approx_bytes"`
	Top         []StackInfo `json:"top,omitempty"` // hottest stacks, by hits
}

// Info reports occupancy and table bytes across both levels, lifetime
// traffic, and the topN hottest stack fingerprints (Yavits-style
// measured-occupancy numbers for cache sizing). topN ≤ 0 omits the
// ranking. Shards are visited one at a time, so the view is per-shard
// consistent but not a global atomic snapshot — fine for the monitoring
// endpoint it feeds.
func (c *EvalCache) Info(topN int) Info {
	if c == nil {
		return Info{}
	}
	var agg map[technique.Params]*StackInfo
	var add func(k *memoKey, hits uint64)
	if topN > 0 {
		agg = make(map[technique.Params]*StackInfo)
		add = func(k *memoKey, hits uint64) {
			si := agg[k.fp.Params]
			if si == nil {
				si = &StackInfo{Stack: fmt.Sprintf("%+v", k.fp.Params)}
				agg[k.fp.Params] = si
			}
			si.Entries++
			si.Hits += hits
		}
	}
	we, wb := c.walls.visit(add)
	se, sb := c.sols.visit(add)
	info := Info{
		Entries:     we + se,
		Shards:      len(c.walls.shards),
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		ApproxBytes: wb + sb,
	}
	if topN <= 0 {
		return info
	}
	top := make([]StackInfo, 0, len(agg))
	for _, si := range agg {
		top = append(top, *si)
	}
	slices.SortFunc(top, func(a, b StackInfo) int {
		return cmp.Or(cmp.Compare(b.Hits, a.Hits), strings.Compare(a.Stack, b.Stack))
	})
	if len(top) > topN {
		top = top[:topN]
	}
	info.Top = top
	return info
}
