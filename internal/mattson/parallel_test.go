package mattson

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestParallelWorkers pins the worker-resolution rules: power-of-two
// rounding, the per-worker set floor, and the serial fallbacks.
func TestParallelWorkers(t *testing.T) {
	cases := []struct {
		requested, minSets, want int
	}{
		{1, 1024, 1},         // explicit serial
		{2, 1024, 2},         //
		{3, 1024, 2},         // rounds down to a power of two
		{8, 1024, 8},         //
		{8, 32, 4},           // capped by minSets/minPartSets
		{8, 16, 2},           //
		{8, 8, 1},            // below the threshold: serial
		{8, 0, 1},            //
		{16, 1 << 20, 16},    //
		{1000, 1 << 20, 512}, // power-of-two rounding at scale
		{-1, 1 << 20, 0},     // auto: GOMAXPROCS (checked below)
	}
	for _, tc := range cases {
		got := parallelWorkers(tc.requested, tc.minSets)
		if tc.want == 0 {
			if got < 1 {
				t.Errorf("parallelWorkers(%d, %d) = %d, want ≥ 1", tc.requested, tc.minSets, got)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("parallelWorkers(%d, %d) = %d, want %d", tc.requested, tc.minSets, got, tc.want)
		}
	}
}

// TestParallelMatchesSerial pins the headline determinism claim on the
// canonical benchmark workload: the set-parallel sweep must produce
// bit-identical CurvePoints to the serial kernel for every worker count.
func TestParallelMatchesSerial(t *testing.T) {
	bc := QuickFig1Bench()
	accesses, warmup := bc.Accesses, bc.Warmup
	if testing.Short() {
		accesses, warmup = 60_000, 12_000
	}
	master, err := bc.MasterTrace()
	if err != nil {
		t.Fatal(err)
	}
	master = master[:min(len(master), accesses)]
	serial, err := MissCurveFastParallel(context.Background(), trace.MustReplayer(master), bc.Base, bc.Sizes, warmup, accesses, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		got, err := MissCurveFastParallel(context.Background(), trace.MustReplayer(master), bc.Base, bc.Sizes, warmup, accesses, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d points, want %d", w, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Errorf("workers=%d size=%d: parallel %+v != serial %+v", w, got[i].SizeBytes, got[i].Stats, serial[i].Stats)
			}
		}
	}
}

// TestParallelMatchesSerialRandomConfigs is the quickcheck-style
// equivalence sweep: random eligible configurations, sizes, and workloads
// must be bit-identical between the serial and parallel drivers. Run
// under -race in CI with GOMAXPROCS=4, this also exercises the partition
// invariant (no two workers may ever touch the same set block).
func TestParallelMatchesSerialRandomConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	// The first narrow trials draw the associativity from the fingerprint
	// kernels' widths {1, 2, 4, 8}; the rest draw from every width the
	// sweep covers, adding the shift kernel's 16 and 64.
	narrow, trials := 12, 24
	if testing.Short() {
		narrow, trials = 4, 8
	}
	for trial := 0; trial < trials; trial++ {
		assocs := []int{1, 2, 4, 8, 16, 64}
		if trial < narrow {
			assocs = assocs[:4]
		}
		assoc := assocs[rng.Intn(len(assocs))]
		lineBytes := []int{32, 64, 128}[rng.Intn(3)]
		base := cachesim.Config{
			LineBytes: lineBytes, Assoc: assoc, Policy: cachesim.LRU,
			WriteBack: true, WriteAllocate: true,
		}
		// Between 2 and 5 power-of-two sizes, the smallest with ≥ 32
		// sets (enough for 2–4 workers): 32KB covers every width ≤ 8.
		lo := max(32*1024, 32*assoc*lineBytes) << rng.Intn(2)
		minSets := lo / lineBytes / assoc
		hi := lo << (1 + rng.Intn(4))
		sizes := cachesim.PowerOfTwoSizes(lo, hi)
		gen, err := workload.NewStackDistance(workload.StackDistanceConfig{
			Alpha:          0.3 + rng.Float64()*0.4,
			HotLines:       64 + rng.Intn(512),
			FootprintLines: 1 << (14 + rng.Intn(4)),
			WriteFraction:  rng.Float64() * 0.5,
			WritesPerLine:  rng.Intn(2) == 0,
			Seed:           rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		n := 40_000 + rng.Intn(40_000)
		warmup := n / 5
		master := trace.Collect(gen, n)
		name := fmt.Sprintf("trial%d_assoc%d_line%d_sizes%d", trial, assoc, lineBytes, len(sizes))
		t.Run(name, func(t *testing.T) {
			serial, err := MissCurveFastParallel(context.Background(), trace.MustReplayer(master), base, sizes, warmup, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			workers := 2 << rng.Intn(2) // 2 or 4
			if got := parallelWorkers(workers, minSets); got != workers {
				t.Fatalf("workers=%d resolves to %d for %d sets: the parallel feed would not run", workers, got, minSets)
			}
			par, err := MissCurveFastParallel(context.Background(), trace.MustReplayer(master), base, sizes, warmup, n, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range serial {
				if par[i] != serial[i] {
					t.Errorf("workers=%d size=%d: parallel %+v != serial %+v",
						workers, serial[i].SizeBytes, par[i].Stats, serial[i].Stats)
				}
			}
		})
	}
}
