package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// probeDur is how long a traced run drives a borrowed HTTP workload: the
// per-layer ledger always reports every layer, and a workload that does
// not exercise the serve or fleet tier borrows those lines from a short
// run of the workload that does (eval-hot for the replica, fleet-mixed
// for the gateway).
const probeDur = 3 * time.Second

// topStages are the serve pipeline's top-level stages: they tile a
// request's "total" span, so their per-request sum closes against it.
var topStages = []string{
	serve.StageAdmit, serve.StageParse, serve.StageFingerprint,
	serve.StageCacheLookup, serve.StageSingleflight, serve.StageWrite,
}

// tracedRun prints the per-layer ledger for workload w.
func tracedRun(ctx context.Context, w string, seed uint64, repo string, d time.Duration) (*ledger, error) {
	l := newLedger(w, "traced")
	inst, err := setup(ctx, w, seed, repo)
	if err != nil {
		return nil, err
	}
	if err := ownPhase(ctx, l, w, inst, d); err != nil {
		inst.close()
		return nil, err
	}
	prof, _ := inst.(*profileInstance)
	inst.close()

	// Borrow the HTTP tiers this workload does not exercise.
	for _, borrow := range []struct {
		w    string
		tier string
	}{{evalHot, "serve"}, {fleetMixed, "fleet"}} {
		if _, ok := l.Metrics[borrow.tier+".handler_us"]; ok {
			continue
		}
		b, err := setup(ctx, borrow.w, seed, repo)
		if err != nil {
			return nil, err
		}
		p, err := httpPhase(ctx, l, borrow.w, b.(*httpInstance), probeDur)
		b.close()
		if err != nil {
			return nil, err
		}
		p.put(l, borrow.tier == "serve", borrow.tier == "fleet")
		l.note(borrow.tier+"_source", fmt.Sprintf("%s run of %s", borrow.w, probeDur))
	}

	if err := layerBenches(ctx, l, w, seed, repo, prof); err != nil {
		return nil, err
	}
	return l, nil
}

// ownPhase measures the workload itself with tracing alternating on and
// off, and derives the runtime and overhead lines from it.
func ownPhase(ctx context.Context, l *ledger, w string, inst instance, d time.Duration) error {
	var ls *loadStats
	var mem memCounters
	switch in := inst.(type) {
	case *httpInstance:
		p, err := httpPhase(ctx, l, w, in, d)
		if err != nil {
			return err
		}
		p.put(l, true, in.sut.gwReg != nil)
		l.note("serve_source", w)
		if in.sut.gwReg != nil {
			l.note("fleet_source", w)
		}
		ls, mem = p.ls, p.mem
	default:
		var flip atomic.Bool
		runtime.GC()
		m0 := readMem()
		ls, _ = inst.load(d, 0, &flip)
		mem = readMem().sub(m0)
		l.attempted += ls.ops
		l.failed += ls.failed
		l.errs = append(l.errs, ls.errs...)
	}
	ops := float64(ls.ops)
	l.put("runtime.alloc_bytes_per_op", ratio(float64(mem.alloc), ops), "B")
	l.put("runtime.gc_per_kop", ratio(1000*float64(mem.gcs), ops), "count")
	untraced, traced := quantile(ls.modeMS[0], 0.5), quantile(ls.modeMS[1], 0.5)
	l.put("trace_overhead_pct", 100*ratio(traced-untraced, untraced), "%")
	l.note("trace_overhead_samples", []int{len(ls.modeMS[0]), len(ls.modeMS[1])})
	return nil
}

// sutSnapshot is the servers' own counters at one instant.
type sutSnapshot struct {
	stages      map[string]histTotal // serve stage → totals over eval+optimize routes and replicas
	replicaReqs uint64
	gwReqs      uint64
	gwHedges    uint64
}

type histTotal struct {
	n   uint64
	sum float64
}

func (t histTotal) mean() float64 { return ratio(t.sum, float64(t.n)) }

func snapshot(s *sut) sutSnapshot {
	ss := sutSnapshot{stages: map[string]histTotal{}}
	for _, reg := range s.regs {
		snap := reg.Snapshot()
		for _, h := range snap.Histograms {
			for _, route := range []string{"eval", "optimize"} {
				if stage, ok := strings.CutPrefix(h.Name, "serve.stage_us."+route+"."); ok {
					t := ss.stages[stage]
					t.n += h.Count
					t.sum += h.Sum
					ss.stages[stage] = t
				}
			}
		}
		ss.replicaReqs += reg.Counter(serve.MetricRequests).Value()
	}
	if s.gwReg != nil {
		ss.gwReqs = s.gwReg.Counter("fleet.requests").Value()
		ss.gwHedges = s.gwReg.Counter("fleet.hedges").Value()
	}
	return ss
}

// renderSpans collects the render span of every retained trace on each
// replica's GET /v1/trace ring into into, keyed by trace ID.
func renderSpans(client *http.Client, s *sut, into map[string]float64) error {
	for _, url := range s.urls {
		resp, err := client.Get(url + "/v1/trace?limit=1000000")
		if err != nil {
			return err
		}
		var list serve.TraceList
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("reading /v1/trace: %w", err)
		}
		for _, tr := range list.Traces {
			for _, sp := range tr.Spans {
				if sp.Name == serve.StageRender {
					into[tr.ID] += sp.WallUS
				}
			}
		}
	}
	return nil
}

// phase is one traced HTTP load phase and what the servers counted.
type phase struct {
	w             string
	ls            *loadStats
	mem           memCounters
	before, after sutSnapshot
	replicaUS     []float64 // timed replica handler calls
	gatewayUS     []float64 // timed gateway handler calls
	render        map[string]float64
	solverHits    uint64
	solverMisses  uint64
	replicaCount  int
	gateway       bool
}

// httpPhase drives h, an instance of workload w, for d with the handler
// timers alternating on and off, then checks every kept reply.
func httpPhase(ctx context.Context, l *ledger, w string, h *httpInstance, d time.Duration) (*phase, error) {
	p := &phase{w: w, render: map[string]float64{}, replicaCount: len(h.sut.urls), gateway: h.sut.gwReg != nil}
	// The ring still holds the warm-up traces, the only renders eval-hot
	// ever does.
	if err := renderSpans(h.client, h.sut, p.render); err != nil {
		return nil, err
	}
	h.sut.replicaT.take()
	h.sut.gatewayT.take()
	p.before = snapshot(h.sut)
	runtime.GC()
	m0 := readMem()
	p.ls, _ = h.load(d, 0, &h.sut.traced)
	p.mem = readMem().sub(m0)
	p.after = snapshot(h.sut)
	p.replicaUS, p.gatewayUS = h.sut.replicaT.take(), h.sut.gatewayT.take()
	if err := renderSpans(h.client, h.sut, p.render); err != nil {
		return nil, err
	}
	for _, r := range h.sut.replicas {
		info := r.CacheInfo(0).SolverCache
		p.solverHits += info.Hits
		p.solverMisses += info.Misses
	}
	if err := h.verify(ctx, p.ls); err != nil {
		return nil, err
	}
	l.attempted += p.ls.ops
	l.failed += p.ls.failed
	l.errs = append(l.errs, p.ls.errs...)
	l.accounting = append(l.accounting, p.accounting()...)
	return p, nil
}

// put writes the phase's serve-tier and/or fleet-tier lines.
func (p *phase) put(l *ledger, serveTier, fleetTier bool) {
	if serveTier {
		l.put("serve.handler_us", mean(p.replicaUS), "us")
		l.put("serve.handler_p50_us", quantile(p.replicaUS, 0.50), "us")
		l.put("serve.handler_p99_us", quantile(p.replicaUS, 0.99), "us")
		for _, st := range topStages {
			l.put("serve.stage."+st+"_us", p.after.stages[st].mean(), "us")
		}
		var render []float64
		for _, v := range p.render {
			render = append(render, v)
		}
		l.put("serve.stage.render_us", mean(render), "us")
		l.note("serve.stage_basis", "mean per occurrence over the replica's lifetime (/metrics histograms; render from the /v1/trace ring)")
		total := 0
		for _, n := range p.ls.dispo {
			total += n
		}
		l.put("serve.resp_hit_ratio", ratio(float64(p.ls.dispo["hit"]), float64(total)), "ratio")
		l.put("serve.shared_ratio", ratio(float64(p.ls.dispo["shared"]), float64(total)), "ratio")
		l.put("scaling.hit_ratio", ratio(float64(p.solverHits), float64(p.solverHits+p.solverMisses)), "ratio")
		l.put("client.remainder_us", p.clientMeanUS()-p.outerUS(), "us")
	}
	if fleetTier {
		l.put("fleet.handler_us", mean(p.gatewayUS), "us")
		l.put("fleet.self_us", p.fleetSelfUS(), "us")
		l.put("fleet.attempts_per_req", mean(p.ls.attempts), "count")
		l.put("fleet.hedge_share", ratio(float64(p.after.gwHedges-p.before.gwHedges), float64(p.after.gwReqs-p.before.gwReqs)), "ratio")
		l.put("fleet.useful_attempt_ratio", ratio(float64(len(p.ls.attempts)), float64(p.after.replicaReqs-p.before.replicaReqs)), "ratio")
		top, answered := 0, 0
		for _, n := range p.ls.replicas {
			top, answered = max(top, n), answered+n
		}
		l.put("fleet.replica_skew", ratio(float64(top), float64(answered)/float64(p.replicaCount)), "ratio")
		for _, class := range []string{classHit, classMiss, classOptimize, classReject} {
			l.put("client."+class+"_p50_ms", quantile(p.ls.latMS[class], 0.5), "ms")
		}
	}
}

func (p *phase) clientMeanUS() float64 { return 1e3 * mean(p.ls.modeMS[1]) }

// outerUS is the mean of the outermost timed handler: the gateway when
// there is one, else the replica.
func (p *phase) outerUS() float64 {
	if p.gateway {
		return mean(p.gatewayUS)
	}
	return mean(p.replicaUS)
}

// replicaPerGatewayUS is the replica handler time per gateway request.
func (p *phase) replicaPerGatewayUS() float64 {
	return ratio(sum(p.replicaUS), float64(len(p.gatewayUS)))
}

func (p *phase) fleetSelfUS() float64 { return mean(p.gatewayUS) - p.replicaPerGatewayUS() }

// accounting closes the phase's books: client latency against the
// outermost handler, the gateway against the replicas behind it, and the
// replica's top-level stages against its request total. Any part that
// exceeds its parent is flagged.
func (p *phase) accounting() []string {
	var out []string
	flag := func(part, parent float64, what string) {
		if part > parent {
			out = append(out, fmt.Sprintf("FLAG %s: %s %.2f us exceeds its parent %.2f us", p.w, what, part, parent))
		}
	}
	client, outer := p.clientMeanUS(), p.outerUS()
	tier := "replica"
	if p.gateway {
		tier = "gateway"
	}
	out = append(out, fmt.Sprintf("accounting %s: client mean %.2f us = %s handler mean %.2f us + client.remainder_us %.2f us (net/http, loopback, load generator)",
		p.w, client, tier, outer, client-outer))
	flag(outer, client, tier+" handler mean")
	if p.gateway {
		rep := p.replicaPerGatewayUS()
		out = append(out, fmt.Sprintf("accounting %s: gateway handler mean %.2f us = replica handler time per gateway request %.2f us + fleet.self_us %.2f us",
			p.w, outer, rep, outer-rep))
		flag(rep, outer, "replica handler time per gateway request")
	}
	reqs := float64(p.after.stages[serve.StageTotal].n - p.before.stages[serve.StageTotal].n)
	perReq := func(stage string) float64 {
		return ratio(p.after.stages[stage].sum-p.before.stages[stage].sum, reqs)
	}
	total := perReq(serve.StageTotal)
	parts := make([]string, 0, len(topStages))
	stageSum := 0.0
	for _, st := range topStages {
		v := perReq(st)
		stageSum += v
		parts = append(parts, fmt.Sprintf("%s %.2f", st, v))
	}
	out = append(out, fmt.Sprintf("accounting %s: replica total stage %.2f us per request = %s (sum %.2f) + unattributed %.2f us",
		p.w, total, strings.Join(parts, " + "), stageSum, total-stageSum))
	flag(stageSum, total, "stage sum")
	return out
}

// layerBenches times each layer's public functions on the workload's own
// inputs: eval-hot's spelling pool (also used by profile, which sends no
// bodies) or the first fleet-mixed bodies, and the profile trace.
func layerBenches(ctx context.Context, l *ledger, w string, seed uint64, repo string, prof *profileInstance) error {
	evalBodies, optBodies, err := layerBodies(w, seed, repo)
	if err != nil {
		return err
	}
	specs, err := benchParse(l, evalBodies)
	if err != nil {
		return err
	}
	if err := benchEval(ctx, l, specs); err != nil {
		return err
	}
	if err := benchSolve(ctx, l, specs); err != nil {
		return err
	}
	if err := benchOptimize(ctx, l, optBodies); err != nil {
		return err
	}
	if prof == nil {
		if prof, err = startProfile(seed); err != nil {
			return err
		}
	}
	return benchMattson(l, prof)
}

// layerBodies picks the bodies the layer benches time.
func layerBodies(w string, seed uint64, repo string) (evalBodies, optBodies [][]byte, err error) {
	if w == fleetMixed {
		hot, rejects := hotSet(seed), rejectPool(seed)
		for i := uint64(0); len(evalBodies) < 64 || len(optBodies) < 8; i++ {
			req := mixRequest(seed, i, hot, rejects)
			switch {
			case req.class == classOptimize && len(optBodies) < 8:
				optBodies = append(optBodies, req.body)
			case (req.class == classHit || req.class == classMiss) && len(evalBodies) < 64:
				evalBodies = append(evalBodies, req.body)
			}
		}
		return evalBodies, optBodies, nil
	}
	examples, err := evalExamples(repo)
	if err != nil {
		return nil, nil, err
	}
	if evalBodies, err = evalHotPool(seed, examples); err != nil {
		return nil, nil, err
	}
	optBodies, err = optimizeExamples(repo)
	return evalBodies, optBodies, err
}
