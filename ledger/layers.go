package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repro/internal/optimize"
	"repro/internal/power"
	"repro/internal/scaling"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/technique"
	"repro/internal/trace"
)

// The layer benches time calls into each layer's public functions from
// outside, on the workload's own inputs. Each bench repeats its calls
// until it has spent at least layerBudget, so a fast layer gets many
// samples and a slow one a bounded few.
const layerBudget = 300 * time.Millisecond

// repeatFor calls f over items, round after round, until budget has
// passed and every item ran at least once. It returns the calls made.
func repeatFor[T any](items []T, budget time.Duration, f func(T) error) (int, error) {
	calls := 0
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < budget; round++ {
		for _, it := range items {
			if err := f(it); err != nil {
				return calls, err
			}
			calls++
		}
	}
	return calls, nil
}

// benchParse times scenario.ParseSpec and serve.FingerprintSpec on the
// bodies and returns the parsed specs.
func benchParse(l *ledger, bodies [][]byte) ([]*scenario.Spec, error) {
	specs := make([]*scenario.Spec, len(bodies))
	for i, b := range bodies {
		sp, err := scenario.ParseSpec(b)
		if err != nil {
			return nil, fmt.Errorf("parse bench body %d: %w", i, err)
		}
		specs[i] = sp
	}
	start := time.Now()
	n, err := repeatFor(bodies, layerBudget, func(b []byte) error {
		_, err := scenario.ParseSpec(b)
		return err
	})
	if err != nil {
		return nil, err
	}
	l.put("scenario.parse_us", us(time.Since(start))/float64(n), "us")
	start = time.Now()
	n, err = repeatFor(specs, layerBudget, func(sp *scenario.Spec) error {
		_, err := serve.FingerprintSpec(sp)
		return err
	})
	if err != nil {
		return nil, err
	}
	l.put("serve.fingerprint_us", us(time.Since(start))/float64(n), "us")
	return specs, nil
}

// benchEval times scenario.Engine.Evaluate cold (a fresh engine, so a
// fresh solver memo, per call) and warm (the same engine again), and
// checks the warm outcome repeats the cold one.
func benchEval(ctx context.Context, l *ledger, specs []*scenario.Spec) error {
	var cold, warm time.Duration
	n, err := repeatFor(specs, layerBudget, func(sp *scenario.Spec) error {
		e := scenario.NewEngine()
		t0 := time.Now()
		a, err := e.Evaluate(ctx, sp)
		t1 := time.Now()
		if err != nil {
			return err
		}
		b, err := e.Evaluate(ctx, sp)
		warm += time.Since(t1)
		cold += t1.Sub(t0)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(a.Values, b.Values) {
			return fmt.Errorf("warm eval of %s disagrees with cold", sp.ID)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.put("scenario.eval_cold_us", us(cold)/float64(n), "us")
	l.put("scenario.eval_warm_us", us(warm)/float64(n), "us")
	return nil
}

// solveItem is one wall-intersection solve the specs ask for.
type solveItem struct {
	solver scaling.Solver
	fp     scaling.Fingerprint
	stack  technique.Stack
	n2     float64
	cons   scaling.Constraint
	gen    int
}

// benchSolve times scaling.EvalCache.SolveConstraintFP cold (a fresh
// cache per stack and constraint) and warm (the same cache again).
func benchSolve(ctx context.Context, l *ledger, specs []*scenario.Spec) error {
	items, err := solveItems(specs)
	if err != nil {
		return err
	}
	const warmReps = 50
	var cold, warm time.Duration
	n, err := repeatFor(items, layerBudget, func(it solveItem) error {
		c := scaling.NewEvalCache()
		t0 := time.Now()
		a, err := c.SolveConstraintFP(ctx, it.solver, it.fp, it.stack, it.n2, it.cons, it.gen)
		t1 := time.Now()
		if err != nil {
			return err
		}
		var b scaling.Solution
		for k := 0; k < warmReps; k++ {
			b, _ = c.SolveConstraintFP(ctx, it.solver, it.fp, it.stack, it.n2, it.cons, it.gen)
		}
		warm += time.Since(t1)
		cold += t1.Sub(t0)
		if !reflect.DeepEqual(a, b) {
			return fmt.Errorf("warm solve disagrees with cold")
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.put("scaling.solve_cold_us", us(cold)/float64(n), "us")
	l.put("scaling.solve_warm_ns", float64(warm)/float64(n*warmReps), "ns")
	return nil
}

// solveItems expands every (case, axis point) of the specs into the
// solver call the engine makes for it. The constraint is rebuilt from the
// spec's public fields with the engine's rules: spec walls, with a case
// budget replacing the bandwidth limit.
func solveItems(specs []*scenario.Spec) ([]solveItem, error) {
	var out []solveItem
	for _, sp := range specs {
		base := power.Baseline()
		if sp.Baseline != nil {
			base = power.Config{P: sp.Baseline.P, C: sp.Baseline.C}
		}
		var gens []scaling.Generation
		switch {
		case len(sp.Axis.N2) > 0:
			for i, n2 := range sp.Axis.N2 {
				gens = append(gens, scaling.Generation{Index: i + 1, Ratio: n2 / base.N(), N: n2})
			}
		case len(sp.Axis.Ratios) > 0:
			gens = scaling.ScalingRatios(base.N(), sp.Axis.Ratios)
		default:
			gens = scaling.Generations(base.N(), sp.Axis.Generations)
		}
		for _, c := range sp.Cases {
			st, err := c.BuildStack()
			if err != nil {
				return nil, err
			}
			alpha := firstPositive(c.Alpha, sp.Alpha, power.AlphaDefault)
			s, err := scaling.New(base, alpha)
			if err != nil {
				return nil, err
			}
			cons := constraintOf(sp, c)
			for _, g := range gens {
				out = append(out, solveItem{s, scaling.FingerprintOf(st), st, g.N, cons, g.Index})
			}
		}
	}
	return out, nil
}

func constraintOf(sp *scenario.Spec, c scenario.Case) scaling.Constraint {
	if len(sp.Envelopes) == 0 {
		return scaling.Bandwidth(firstPositive(c.Budget, sp.Budget.Envelope, 1), sp.Budget.Compound)
	}
	var walls []scaling.Wall
	for _, e := range sp.Envelopes {
		limit := firstPositive(e.Limit, 1)
		switch strings.ToLower(e.Kind) {
		case scaling.KindThermal:
			walls = append(walls, scaling.ThermalWall{Limit: limit, Compound: e.Compound, Growth: e.Growth, CachePower: e.CachePower})
		case scaling.KindEnergy:
			walls = append(walls, scaling.EnergyWall{Limit: limit, Compound: e.Compound, Growth: e.Growth, AccessShare: e.AccessShare})
		default:
			walls = append(walls, scaling.BandwidthWall{Budget: firstPositive(c.Budget, limit), Compound: e.Compound})
		}
	}
	return scaling.NewConstraint(walls...)
}

func firstPositive(vs ...float64) float64 {
	for _, v := range vs {
		if v > 0 {
			return v
		}
	}
	return 0
}

// benchOptimize times optimize.Optimizer.Search cold (a fresh optimizer
// and solver memo per call) and warm (the same optimizer again).
func benchOptimize(ctx context.Context, l *ledger, bodies [][]byte) error {
	osps := make([]*scenario.OptimizeSpec, len(bodies))
	for i, b := range bodies {
		osp, err := scenario.ParseOptimizeSpec(b)
		if err != nil {
			return fmt.Errorf("optimize bench body %d: %w", i, err)
		}
		osps[i] = osp
	}
	var cold, warm time.Duration
	stacks := 0
	n, err := repeatFor(osps, layerBudget, func(osp *scenario.OptimizeSpec) error {
		o := optimize.New()
		t0 := time.Now()
		a, err := o.Search(ctx, osp)
		t1 := time.Now()
		if err != nil {
			return err
		}
		b, err := o.Search(ctx, osp)
		warm += time.Since(t1)
		cold += t1.Sub(t0)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(a.Best, b.Best) {
			return fmt.Errorf("warm search of %s disagrees with cold", osp.ID)
		}
		stacks += a.Stacks
		return nil
	})
	if err != nil {
		return err
	}
	l.put("optimize.search_cold_us", us(cold)/float64(n), "us")
	l.put("optimize.search_warm_us", us(warm)/float64(n), "us")
	l.put("optimize.stacks_per_search", float64(stacks)/float64(n), "count")
	return nil
}

// mattsonSweeps is how many sweeps each kernel configuration gets.
const mattsonSweeps = 12

// benchMattson times mattson.MissCurveFastParallel with the serial kernel
// (workers=1) and the default driver (workers=0, resolved to GOMAXPROCS),
// checking every sweep against the brute-force curve, and relates the
// default driver to the host's measured bandwidth floor.
func benchMattson(l *ledger, p *profileInstance) error {
	timeSweeps := func(workers int) (float64, memCounters, error) {
		var lat []float64
		runtime.GC() // every configuration starts from the same empty sweep-arena pool
		m0 := readMem()
		for k := 0; k < mattsonSweeps; k++ {
			start := time.Now()
			curve, err := p.sweep(workers)
			lat = append(lat, ms(time.Since(start)))
			if err != nil {
				return 0, memCounters{}, err
			}
			if !sameCurve(curve, p.brute) {
				return 0, memCounters{}, fmt.Errorf("workers=%d sweep differs from the brute-force curve", workers)
			}
		}
		return quantile(lat, 0.5), readMem().sub(m0), nil
	}
	serial, _, err := timeSweeps(1)
	if err != nil {
		return err
	}
	parallel, mem, err := timeSweeps(0)
	if err != nil {
		return err
	}
	accesses := float64(p.bc.Accesses)
	l.put("mattson.serial_ms_per_sweep", serial, "ms")
	l.put("mattson.parallel_ms_per_sweep", parallel, "ms")
	l.put("mattson.parallel_speedup", serial/parallel, "x")
	l.put("mattson.ns_per_access", parallel*1e6/accesses, "ns")
	l.put("mattson.alloc_bytes_per_sweep", float64(mem.alloc)/mattsonSweeps, "B")
	l.note("mattson.parallel_workers", p.bc.ParallelWorkers(0))
	l.note("mattson.speedup_base", "serial kernel (workers=1) over the default driver (workers=0)")

	// The computed traffic floor: every access streams one trace element
	// from memory. The profilers' per-set state (16 words per set) stays
	// cache-resident, so it is stated but not charged.
	traceBytes := float64(unsafe.Sizeof(trace.Access{}))
	stateBytes := 0
	for _, sz := range p.bc.Sizes {
		stateBytes += sz / p.bc.Base.LineBytes / p.bc.Base.Assoc * 16 * 8
	}
	gbps, llc, footprint := streamTriad()
	floorMS := accesses * traceBytes / (gbps * 1e9) * 1e3
	l.put("host.stream_gbps", gbps, "GB/s")
	l.put("mattson.computed_bytes_per_access", traceBytes, "B")
	l.put("mattson.pct_of_floor", 100*floorMS/parallel, "%")
	l.note("host.llc_bytes", llc)
	l.note("host.stream_footprint_bytes", footprint)
	l.note("mattson.computed_bytes", "computed from the kernel layout: one trace.Access streamed per access")
	l.note("mattson.resident_state_bytes", stateBytes)
	l.note("mattson.floor_ms_per_sweep", floorMS)
	return nil
}

// streamFootprintCap bounds the triad's three arrays together, so the
// bench stays small on hosts whose reported LLC is large.
const streamFootprintCap = 384 << 20

// streamTriad measures sustained memory bandwidth with a STREAM-style
// triad a = b + s·c on GOMAXPROCS goroutines over arrays sized 4× the
// last-level cache (capped at streamFootprintCap), best of five passes,
// counting 24 bytes per element. It returns GB/s, the LLC size and the
// footprint of the three arrays.
func streamTriad() (gbps float64, llc, footprint int) {
	llc = llcBytes()
	footprint = min(4*llc, streamFootprintCap)
	n := footprint / 24
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range a {
		b[i], c[i] = 1, 2
	}
	w := runtime.GOMAXPROCS(0)
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			lo, hi := k*n/w, (k+1)*n/w
			wg.Add(1)
			go func(a, b, c []float64) {
				defer wg.Done()
				b, c = b[:len(a)], c[:len(a)]
				for i := range a {
					a[i] = b[i] + 3*c[i]
				}
			}(a[lo:hi], b[lo:hi], c[lo:hi])
		}
		wg.Wait()
		gbps = max(gbps, float64(24*n)/time.Since(start).Seconds()/1e9)
	}
	debug.FreeOSMemory() // the arrays are dead here; hand their pages back
	return gbps, llc, 3 * n * 8
}

// llcBytes reads the largest cache size sysfs reports for CPU 0, falling
// back to 32 MiB.
func llcBytes() int {
	best := 0
	paths, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.Atoi(s); err == nil {
			best = max(best, v*mult)
		}
	}
	if best == 0 {
		return 32 << 20
	}
	return best
}
