package mattson

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// TestSweepArenaSurvivesGC: idle sweep arenas are kept across garbage
// collections, so a sweep right after a GC allocates what a sweep between
// collections does instead of rebuilding its slabs. Two collections run
// between sweeps, enough to empty a sync.Pool including its victim cache.
func TestSweepArenaSurvivesGC(t *testing.T) {
	bc := QuickFig1Bench()
	master, err := bc.MasterTrace()
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() {
		if _, err := MissCurveFastParallel(context.Background(), trace.MustReplayer(master), bc.Base, bc.Sizes, bc.Warmup, bc.Accesses, 2); err != nil {
			t.Fatal(err)
		}
	}
	bytesPerSweep := func(collect bool) uint64 {
		const sweeps = 6
		var total uint64
		for i := 0; i < sweeps; i++ {
			if collect {
				runtime.GC()
				runtime.GC()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sweep()
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
		}
		return total / sweeps
	}
	sweep() // size the arena
	between := bytesPerSweep(false)
	afterGC := bytesPerSweep(true)
	t.Logf("bytes per sweep: %d between collections, %d right after one", between, afterGC)
	if afterGC > between+between/2+4096 {
		t.Errorf("a sweep after a GC allocates %d B, against %d B between collections: the arena did not survive", afterGC, between)
	}
}
