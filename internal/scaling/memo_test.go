package scaling

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/technique"
)

// TestMemoBoundAndFIFO drives three times the capacity of distinct keys
// through one single-shard level: it never holds more than memoCap
// entries, every entry it still holds maps to its own value, and the
// newest key always survives (a full set evicts its oldest entry).
func TestMemoBoundAndFIFO(t *testing.T) {
	m := newMemo[int](1)
	for i := 0; i < 3*memoCap; i++ {
		k := memoKey{n2: float64(i)}
		h := k.hash()
		if got := m.put(&k, h, i); got != i {
			t.Fatalf("put(%d) returned %d", i, got)
		}
		if v, ok := m.get(&k, h); !ok || v != i {
			t.Fatalf("newest key %d: get = (%d, %v)", i, v, ok)
		}
	}
	entries, bytes := m.visit(func(k *memoKey, hits uint64) {
		if hits != 1 {
			t.Errorf("key %v: hits = %d, want 1", k.n2, hits)
		}
	})
	if entries > memoCap || entries < memoCap*9/10 {
		t.Errorf("entries = %d, want ≤ %d and near it", entries, memoCap)
	}
	if want := uint64(memoCap/memoWays) * uint64(unsafe.Sizeof(memoSet[int]{})); bytes != want {
		t.Errorf("bytes = %d, want %d (a full table)", bytes, want)
	}
	for i := 0; i < 3*memoCap; i++ {
		k := memoKey{n2: float64(i)}
		if v, ok := m.get(&k, k.hash()); ok && v != i {
			t.Fatalf("key %d maps to %d", i, v)
		}
	}
	// The first answer stays: a second put of a held key is a no-op.
	k := memoKey{n2: float64(3*memoCap - 1)}
	if got := m.put(&k, k.hash(), -1); got != 3*memoCap-1 {
		t.Errorf("re-put returned %d, want the first answer", got)
	}
	if n := m.purge(); n != entries {
		t.Errorf("purge = %d, want %d", n, entries)
	}
	if e, b := m.visit(nil); e != 0 || b != 0 {
		t.Errorf("after purge: %d entries, %d bytes", e, b)
	}
}

// TestEvalCacheBoundCountsBothLevels drives more distinct constraint
// solves than one level holds: each level stays within memoCap, and Len,
// Info.Entries and Info.ApproxBytes count the wall and solution levels
// alike.
func TestEvalCacheBoundCountsBothLevels(t *testing.T) {
	// Shard counts round up to a power of two and stop at one set per
	// shard, so no layout holds more than memoCap per level.
	for n, want := range map[int]int{0: DefaultEvalCacheShards, 1: 1, 3: 4, 16: 16, 1 << 20: memoCap / memoWays} {
		if got := NewEvalCacheShards(n).Shards(); got != want {
			t.Errorf("NewEvalCacheShards(%d).Shards() = %d, want %d", n, got, want)
		}
	}
	s := Default()
	c := NewEvalCache()
	st := technique.Combine(technique.CacheCompression{Ratio: 2})
	fp := FingerprintOf(st)
	cons := Bandwidth(1, false)

	if _, err := c.SolveConstraintFP(context.Background(), s, fp, st, 32, cons, 1); err != nil {
		t.Fatal(err)
	}
	setBytes := uint64(unsafe.Sizeof(memoSet[float64]{}) + unsafe.Sizeof(memoSet[Solution]{}))
	if info := c.Info(1); c.Len() != 2 || info.Entries != 2 || info.ApproxBytes != setBytes || info.Top[0].Entries != 2 {
		t.Fatalf("one solve: Len %d, Info %+v; want 2 entries (wall + solution) in %d bytes", c.Len(), info, setBytes)
	}

	for i := 0; i < 2*memoCap; i++ {
		if _, err := c.SolveConstraintFP(context.Background(), s, fp, st, 32+float64(i)/8, cons, 1); err != nil {
			t.Fatal(err)
		}
	}
	we, wb := c.walls.visit(nil)
	se, sb := c.sols.visit(nil)
	if we > memoCap || se > memoCap {
		t.Errorf("levels hold %d and %d entries, cap %d each", we, se, memoCap)
	}
	info := c.Info(0)
	if c.Len() != we+se || info.Entries != we+se || info.ApproxBytes != wb+sb {
		t.Errorf("Len %d, Info %+v; want %d entries, %d bytes over both levels", c.Len(), info, we+se, wb+sb)
	}
	full := uint64(memoCap/memoWays) * setBytes
	if info.ApproxBytes > full {
		t.Errorf("ApproxBytes = %d, beyond the full-table %d", info.ApproxBytes, full)
	}
	if n := c.Purge(); n != we+se || c.Len() != 0 || c.Info(0).ApproxBytes != 0 {
		t.Errorf("Purge = %d (want %d), then Len %d, bytes %d", n, we+se, c.Len(), c.Info(0).ApproxBytes)
	}
}

// TestEvalCacheEvictionUnderLoad runs concurrent lookups and inserts over
// twice as many keys as a level holds, so sets evict constantly, while one
// worker purges now and then and another goroutine reads Info. Every
// answer must equal the direct solver's. Run with -race in CI.
func TestEvalCacheEvictionUnderLoad(t *testing.T) {
	s := Default()
	c := NewEvalCacheShards(2)
	st := technique.Combine(technique.DRAMCache{Density: 4})
	fp := FingerprintOf(st)
	keys := 2 * memoCap
	if testing.Short() {
		keys = memoCap / 4
	}
	n2 := func(i int) float64 { return 16 + float64(i)/4 }
	want := make([]float64, keys)
	for i := range want {
		v, err := s.SupportableCores(st, n2(i), 1)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	var wg sync.WaitGroup
	errc := make(chan error, 5) // four workers and the reader
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < keys; j++ {
				if g == 0 && j%(keys/4) == keys/8 {
					c.Purge()
				}
				i := (j*(2*g+1) + g*keys/4) % keys
				got, err := c.SupportableCoresFP(context.Background(), s, fp, st, n2(i), 1)
				if err == nil && math.Float64bits(got) != math.Float64bits(want[i]) {
					err = fmt.Errorf("key %d: got %v, want %v", i, got, want[i])
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	stop, reader := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(reader)
		for {
			select {
			case <-stop:
				return
			default:
				if info := c.Info(3); info.Entries > memoCap {
					errc <- fmt.Errorf("%d entries, cap %d", info.Entries, memoCap)
					return
				}
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-reader
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if hits, misses := c.Stats(); hits+misses != uint64(4*keys) {
		t.Errorf("hits+misses = %d, want %d", hits+misses, 4*keys)
	}
}
