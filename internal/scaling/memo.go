package scaling

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// memo is the fixed-capacity, set-associative table behind both levels of
// EvalCache. One 64-bit key hash places an entry: its top bits pick the
// shard (a lock and a power-of-two array of memoWays-way sets), its low
// bits the set, and the whole word is compared before the key. Entries
// live inline in their slots, so storing one allocates nothing.
type memo[V any] struct {
	shards  []memoShard[V]
	shift   uint // shard = hash >> shift
	maxSets int  // per-shard set count at capacity
}

// memoCap is the entry capacity of one memo level, split evenly across
// the shards; memoWays is the associativity of a set.
const (
	memoCap  = 1 << 12
	memoWays = 8
)

// memoKey is one memoized solve. Both levels share it: wall-level entries
// leave cons and gen zero; solution entries leave budget zero, because
// each wall resolves its own budget from the constraint and generation.
type memoKey struct {
	fp                              Fingerprint
	baseP, baseC, alpha, n2, budget float64
	cons                            uint64 // Constraint.Fingerprint
	gen                             int
}

// hash folds every key field's bits through FNV-1a, then fmix64, so the
// low set-index bits see the whole key; the layout is reproducible.
func (k *memoKey) hash() uint64 {
	p := &k.fp.Params
	h := fnvMix(fnvOffset, boolBit(p.ExtraDie))
	for _, v := range [...]float64{p.DieDensity, p.ExtraDieDensity, p.CacheMult, p.TrafficDiv,
		p.CoreArea, p.SharedFrac, p.PrivateSharedFrac, p.ThermalResist, p.CachePowerMult,
		p.CacheEnergyMult, p.LinkEnergyMult, k.baseP, k.baseC, k.alpha, k.n2, k.budget} {
		h = fnvMix(h, math.Float64bits(v))
	}
	return fmix64(fnvMix(fnvMix(h, k.cons), uint64(k.gen)))
}

type memoSlot[V any] struct {
	tag  uint64 // the key's hash
	hits uint64 // bumped atomically under the read lock
	key  memoKey
	val  V
}

// memoSet fills its slots in insertion order; once full, next is the FIFO
// eviction cursor.
type memoSet[V any] struct {
	slot    [memoWays]memoSlot[V]
	n, next uint8
}

// memoShard is padded so neighboring shards' locks don't false-share.
type memoShard[V any] struct {
	mu   sync.RWMutex
	sets []memoSet[V]
	_    [64]byte
}

func newMemo[V any](shards int) memo[V] {
	return memo[V]{
		shards:  make([]memoShard[V], shards),
		shift:   uint(64 - bits.Len(uint(shards-1))),
		maxSets: max(1, memoCap/memoWays/shards),
	}
}

// set returns the set h maps to; the table must be non-empty.
func (sh *memoShard[V]) set(h uint64) *memoSet[V] { return &sh.sets[h&uint64(len(sh.sets)-1)] }

// find returns the slot holding k in sh's table, or nil.
func (sh *memoShard[V]) find(k *memoKey, h uint64) *memoSlot[V] {
	if len(sh.sets) == 0 {
		return nil
	}
	s := sh.set(h)
	for i := range s.n {
		if e := &s.slot[i]; e.tag == h && e.key == *k {
			return e
		}
	}
	return nil
}

// get returns the value stored under k (whose hash is h) and counts the
// hit on its slot.
func (m *memo[V]) get(k *memoKey, h uint64) (v V, ok bool) {
	sh := &m.shards[h>>m.shift]
	sh.mu.RLock()
	if e := sh.find(k, h); e != nil {
		atomic.AddUint64(&e.hits, 1)
		v, ok = e.val, true
	}
	sh.mu.RUnlock()
	return v, ok
}

// put stores v under k unless k is already present, and returns the value
// the table holds: concurrent solvers keep the first answer (they agree).
func (m *memo[V]) put(k *memoKey, h uint64, v V) V {
	sh := &m.shards[h>>m.shift]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.find(k, h); e != nil {
		return e.val
	}
	// Allocate the first set, or double while k's set is full and the
	// shard is below its cap. Doubling splits set i into sets i and
	// i+len, so re-placing entries in slot order cannot overflow a set
	// and keeps each set oldest-first.
	for len(sh.sets) == 0 || sh.set(h).n == memoWays && len(sh.sets) < m.maxSets {
		old := sh.sets
		sh.sets = make([]memoSet[V], max(1, 2*len(old)))
		for i := range old {
			for _, e := range old[i].slot[:old[i].n] {
				ns := sh.set(e.tag)
				ns.slot[ns.n] = e
				ns.n++
			}
		}
	}
	s := sh.set(h)
	i := s.n
	if i < memoWays {
		s.n++
	} else {
		i, s.next = s.next, (s.next+1)%memoWays
	}
	s.slot[i] = memoSlot[V]{tag: h, key: *k, val: v}
	return v
}

// visit returns the live entry count and the table bytes held (every
// allocated slot, live or not), calling fn, if non-nil, with each live
// entry's key and hit count; shards are visited one at a time.
func (m *memo[V]) visit(fn func(k *memoKey, hits uint64)) (entries int, bytes uint64) {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		bytes += uint64(len(sh.sets)) * uint64(unsafe.Sizeof(memoSet[V]{}))
		for j := range sh.sets {
			s := &sh.sets[j]
			entries += int(s.n)
			for k := 0; fn != nil && k < int(s.n); k++ {
				fn(&s.slot[k].key, atomic.LoadUint64(&s.slot[k].hits))
			}
		}
		sh.mu.RUnlock()
	}
	return entries, bytes
}

// purge drops every entry and its table, one shard at a time, and returns
// how many entries were held.
func (m *memo[V]) purge() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for j := range sh.sets {
			n += int(sh.sets[j].n)
		}
		sh.sets = nil
		sh.mu.Unlock()
	}
	return n
}
