package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/scenario"
)

// nonGCPauses is the number of stop-the-world pauses the runtime has made
// for anything but garbage collection (MemStats reads, goroutine dumps,
// GOMAXPROCS changes): the sample count of the runtime/metrics histogram
// /sched/pauses/total/other:seconds. Reading it does not pause.
func nonGCPauses(t *testing.T) uint64 {
	t.Helper()
	s := []metrics.Sample{{Name: "/sched/pauses/total/other:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		t.Fatal("runtime does not publish /sched/pauses/total/other:seconds (Go ≥1.22 does)")
	}
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// freshOptimizeBody is a small inverse query whose catalog parameter, and
// so whose fingerprint and solves, differ for every i.
func freshOptimizeBody(i int) string {
	return fmt.Sprintf(`{"id":"stw-%d","n2":32,"budget":{"envelope":1},`+
		`"catalog":[{"name":"Fltr","params":{"unused":%g},"cost":1},`+
		`{"name":"LC","params":{"ratio":2},"cost":1.5}],`+
		`"split":{"min":0.5,"max":2,"points":2}}`, i, 0.2+float64(i)/1000)
}

// TestNoStopTheWorldPerRequest drives fresh evals and optimizes through
// a replica with a registry installed, as `bandwall serve` runs it. Every
// one reaches the engine or the optimizer, whose spans record allocation
// deltas; none of that may stop the world, or each miss would stall every
// request in flight in the process.
func TestNoStopTheWorldPerRequest(t *testing.T) {
	s, _, _ := newTestServer(t, Config{}, nil)
	h := s.Handler()
	post := func(path, body string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		if got := rec.Header().Get(CacheHeader); got != "miss" {
			t.Fatalf("%s: cache disposition %q, want a fresh miss", path, got)
		}
	}
	const evals, optimizes = 200, 50
	p0 := nonGCPauses(t)
	for i := 0; i < evals; i++ {
		post("/v1/eval", specWithID(fmt.Sprintf("stw-%d", i), 8+float64(i)))
	}
	for i := 0; i < optimizes; i++ {
		post("/v1/optimize", freshOptimizeBody(i))
	}
	// A per-request pause would add ≥1 per request; allow stray pauses
	// from elsewhere in the process, far below that rate.
	if d := nonGCPauses(t) - p0; d >= (evals+optimizes)/20 {
		t.Errorf("%d requests made %d non-GC stop-the-world pauses, want < %d",
			evals+optimizes, d, (evals+optimizes)/20)
	}
}

// TestNoStopTheWorldEngineAndOptimizer pins the same property one layer
// down: with a registry installed, Engine.Evaluate and Optimizer.Search
// record their spans without a single stop-the-world pause.
func TestNoStopTheWorldEngineAndOptimizer(t *testing.T) {
	prev := obs.Default()
	obs.SetDefault(obs.NewRegistry())
	t.Cleanup(func() { obs.SetDefault(prev) })
	eng := scenario.NewEngine()
	opt := optimize.NewWithCache(eng.Cache)
	sp, err := scenario.ParseSpec([]byte(stackedSpec))
	if err != nil {
		t.Fatal(err)
	}
	osp, err := scenario.ParseOptimizeSpec([]byte(optimizeSpecBody))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p0 := nonGCPauses(t)
	if _, err := eng.Evaluate(ctx, sp); err != nil {
		t.Fatal(err)
	}
	if _, err := opt.Search(ctx, osp); err != nil {
		t.Fatal(err)
	}
	if d := nonGCPauses(t) - p0; d != 0 {
		t.Errorf("Evaluate + Search made %d non-GC stop-the-world pauses, want 0", d)
	}
	if n := len(obs.Default().Snapshot().Spans); n != 2 {
		t.Errorf("registry recorded %d spans, want scenario.eval and optimize.search", n)
	}
}
