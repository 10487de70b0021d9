package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/cachesim"
	"repro/internal/mattson"
	"repro/internal/trace"
)

// Workload names. Later changes cite these.
const (
	evalHot    = "eval-hot"
	fleetMixed = "fleet-mixed"
	profile    = "profile"
)

var workloadNames = []string{evalHot, fleetMixed, profile}

// instance is one set-up workload, ready to measure.
type instance interface {
	// load runs the workload's closed loop for d, or until the op index
	// reaches limit when limit is non-zero. With flip non-nil the tracing
	// flag alternates during the run.
	load(d time.Duration, limit uint64, flip *atomic.Bool) (*loadStats, time.Duration)
	// ops is how many op indices the instance has handed out.
	ops() uint64
	// verify checks the replies load kept for the oracle.
	verify(ctx context.Context, ls *loadStats) error
	close()
}

// setup builds workload w from the seed: servers, bodies or trace,
// oracles, warm-up.
func setup(ctx context.Context, w string, seed uint64, repo string) (instance, error) {
	switch w {
	case evalHot:
		examples, err := evalExamples(repo)
		if err != nil {
			return nil, err
		}
		pool, err := evalHotPool(seed, examples)
		if err != nil {
			return nil, err
		}
		gen := func(i uint64) request {
			j := int(i % uint64(len(pool)))
			return request{class: classHit, path: "/v1/eval", body: pool[j], hot: j}
		}
		return startHTTP(ctx, 1, false, pool, gen)
	case fleetMixed:
		hot, rejects := hotSet(seed), rejectPool(seed)
		gen := func(i uint64) request { return mixRequest(seed, i, hot, rejects) }
		return startHTTP(ctx, 2, true, hot, gen)
	case profile:
		return startProfile(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", w, workloadNames)
}

// httpInstance is a running SUT with its client and request stream.
type httpInstance struct {
	sut    *sut
	client *http.Client
	gen    func(uint64) request
	hot    []hotEntry
	next   atomic.Uint64
}

// startHTTP starts the servers, then warms them with every hot body,
// checking each reply against its oracle.
func startHTTP(ctx context.Context, replicas int, gateway bool, hotBodies [][]byte, gen func(uint64) request) (*httpInstance, error) {
	s, err := startSUT(replicas, gateway)
	if err != nil {
		return nil, err
	}
	h := &httpInstance{sut: s, client: newClient(), gen: gen}
	h.hot, err = warm(ctx, h.client, s.front, "/v1/eval", hotBodies)
	if err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

func (h *httpInstance) load(d time.Duration, limit uint64, flip *atomic.Bool) (*loadStats, time.Duration) {
	return runHTTP(h.client, h.sut.front, h.gen, h.hot, d, limit, &h.next, flip)
}

func (h *httpInstance) ops() uint64 { return h.next.Load() }

func (h *httpInstance) verify(ctx context.Context, ls *loadStats) error { return ls.verifyFresh(ctx) }

func (h *httpInstance) close() {
	h.client.CloseIdleConnections()
	h.sut.close()
}

// profileInstance replays one seeded trace through the default
// miss-curve driver.
type profileInstance struct {
	bc    mattson.Fig1Bench
	tr    []trace.Access
	brute []cachesim.CurvePoint
	next  atomic.Uint64
}

// startProfile generates the trace, computes the brute-force reference
// curve, and runs one warm-up sweep.
func startProfile(seed uint64) (*profileInstance, error) {
	p := &profileInstance{bc: mattson.QuickFig1Bench()}
	var err error
	if p.tr, err = profileTrace(seed); err != nil {
		return nil, err
	}
	if p.brute, err = p.bc.RunBrute(trace.MustReplayer(p.tr)); err != nil {
		return nil, err
	}
	curve, err := p.sweep(0)
	if err != nil {
		return nil, err
	}
	if !sameCurve(curve, p.brute) {
		return nil, fmt.Errorf("warm-up sweep differs from the brute-force curve")
	}
	return p, nil
}

// sweep runs one full miss-curve sweep with the given worker count
// (0 = GOMAXPROCS, the default driver).
func (p *profileInstance) sweep(workers int) ([]cachesim.CurvePoint, error) {
	return mattson.MissCurveFastParallel(context.Background(), trace.MustReplayer(p.tr),
		p.bc.Base, p.bc.Sizes, p.bc.Warmup, p.bc.Accesses, workers)
}

// load sweeps back to back on one goroutine; the driver itself fans out
// to GOMAXPROCS workers. The profiler has no handler to wrap, so traced
// and untraced sweeps run the same code.
func (p *profileInstance) load(d time.Duration, limit uint64, flip *atomic.Bool) (*loadStats, time.Duration) {
	ls := newLoadStats()
	elapsed := runLoop(1, d, limit, &p.next, flip, func(int) func(uint64, tracing) {
		return func(_ uint64, mode tracing) {
			start := time.Now()
			curve, err := p.sweep(0)
			lat := ms(time.Since(start))
			ls.ops++
			if err != nil {
				ls.fail(err)
				return
			}
			ls.record("sweep", lat, mode)
			if !sameCurve(curve, p.brute) {
				ls.fail(fmt.Errorf("sweep %d differs from the brute-force curve", ls.ops))
			}
		}
	})
	return ls, elapsed
}

func (p *profileInstance) ops() uint64                              { return p.next.Load() }
func (p *profileInstance) verify(context.Context, *loadStats) error { return nil }
func (p *profileInstance) close()                                   {}

// setupReps is how many times an end-to-end run sets up; setup_s is the
// median, and only the last instance is measured.
const setupReps = 5

// pairs splits the measured window into slices, and each slice follows a
// reference slice of the same length, so the workload and the reference
// take turns through the run and each pair sees the host in one state.
// The ratio metrics are medians over the pairs. More, shorter pairs track
// a host whose speed changes within a second more closely: on the same
// seven fleet-mixed seeds, the p90 ratio spread by 8% of its median with
// 40 pairs in 10 s and by 5% with 80.
const pairs = 80

// warmOps is how many ops an end-to-end run sends before it measures: the
// warm-up, and the fixed amount of work after which live_heap_mb is read,
// so the heap a run reports does not depend on how fast the host was.
var warmOps = map[string]uint64{evalHot: 20000, fleetMixed: 10000, profile: 10}

// warmCap bounds the warm-up on a host too slow to finish it.
const warmCap = 90 * time.Second

// endToEnd sets the workload up setupReps times, warms the last instance
// up by a fixed op count, then measures it for d with tracing off, taking
// turns with the reference.
func endToEnd(ctx context.Context, w string, seed uint64, repo string, d time.Duration) (*ledger, error) {
	var setups []float64
	var inst instance
	for k := 0; k < setupReps; k++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if inst, err = setup(ctx, w, seed, repo); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()
	ref, err := startRef()
	if err != nil {
		return nil, err
	}
	defer ref.close()

	ls, _ := inst.load(warmCap, inst.ops()+warmOps[w], nil)
	warmed := ls.ops
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	slice := d / pairs
	if _, err := ref.slice(4 * slice); err != nil { // the reference's own warm-up
		return nil, err
	}

	var rates, cpus, lat, refRates, refCPUs, refLat, busy []float64
	var p90s, refP90s []float64
	var rateR, cpuR, p50R, p90R []float64 // per pair: workload over reference
	quiesce()
	for k := 0; k < pairs; k++ {
		cpu0 := cpuTime()
		rs, err := ref.slice(slice)
		if err != nil {
			return nil, err
		}
		busy = append(busy, 100*ratio(float64(cpuTime()-cpu0), rs.Seconds*1e9))
		refRates = append(refRates, rs.rate())
		refCPUs = append(refCPUs, rs.cpuPerOp())
		refLat = append(refLat, rs.LatMS...)

		cpu0 = cpuTime()
		part, elapsed := inst.load(slice, 0, nil)
		quiesce() // the slice's trailing GC and cancelled work are charged to it
		done := float64(part.ops - part.failed)
		partLat := part.all()
		cpus = append(cpus, ratio(us(cpuTime()-cpu0), done))
		rates = append(rates, done/elapsed.Seconds())
		lat = append(lat, partLat...)
		ls.merge(part)

		rateR = append(rateR, ratio(rates[k], refRates[k]))
		cpuR = append(cpuR, ratio(cpus[k], refCPUs[k]))
		p50R = append(p50R, ratio(quantile(partLat, 0.5), quantile(rs.LatMS, 0.5)))
		p90s = append(p90s, quantile(partLat, 0.9))
		refP90s = append(refP90s, quantile(rs.LatMS, 0.9))
		p90R = append(p90R, ratio(p90s[k], refP90s[k]))
	}
	if err := ref.close(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if err := inst.verify(ctx, ls); err != nil {
		return nil, err
	}

	l := newLedger(w, "end_to_end")
	l.attempted, l.failed, l.errs = ls.ops, ls.failed, ls.errs
	l.put("throughput_vs_ref", quantile(rateR, 0.5), "x")
	l.put("latency_p50_vs_ref", quantile(p50R, 0.5), "x")
	l.put("latency_p90_vs_ref", quantile(p90R, 0.5), "x")
	l.put("cpu_per_op_vs_ref", quantile(cpuR, 0.5), "x")
	l.put("live_heap_mb", float64(mem.HeapAlloc)/(1<<20), "MB")
	l.put("setup_s", quantile(setups, 0.5), "s")
	l.note("absolute", map[string]metric{
		"ops_per_s":          {quantile(rates, 0.5), "1/s"},
		"latency_p50_ms":     {quantile(lat, 0.5), "ms"},
		"latency_p90_ms":     {quantile(lat, 0.9), "ms"},
		"latency_p99_ms":     {quantile(lat, 0.99), "ms"},
		"cpu_us_per_op":      {quantile(cpus, 0.5), "us"},
		"peak_rss_mb":        {peakRSSMB(), "MB"},
		"ref_ops_per_s":      {quantile(refRates, 0.5), "1/s"},
		"ref_latency_p50_ms": {quantile(refLat, 0.5), "ms"},
		"ref_latency_p90_ms": {quantile(refLat, 0.9), "ms"},
		"ref_cpu_us_per_op":  {quantile(refCPUs, 0.5), "us"},
	})
	l.note("warm_ops", warmed)
	l.note("samples", len(lat))
	l.note("samples_beyond_p90", len(lat)-int(0.9*float64(len(lat))))
	l.note("samples_beyond_p99", len(lat)-int(0.99*float64(len(lat))))
	l.note("reference_samples", len(refLat))
	l.note("cpu_scope", "user+sys CPU per slice: this process (client and in-process servers) for the workload, the child (client and server) for the reference")
	l.note("setup_reps_s", setups)
	l.note("pairs", map[string][]float64{
		"ops_per_s": rates, "cpu_us_per_op": cpus,
		"ref_ops_per_s": refRates, "ref_cpu_us_per_op": refCPUs,
		"latency_p90_ms": p90s, "ref_latency_p90_ms": refP90s,
		"busy_during_ref_pct": busy,
	})
	return l, nil
}

// quiesce waits, at most a second, until this process is close to idle:
// a garbage collection or cancelled work that outlives a workload slice
// would otherwise take CPU from the reference slice that follows.
func quiesce() {
	const tick = 20 * time.Millisecond
	for end := time.Now().Add(time.Second); time.Now().Before(end); {
		c0 := cpuTime()
		time.Sleep(tick)
		if cpuTime()-c0 < tick/10 {
			return
		}
	}
}
