package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
)

// The repository root, relative to this package's directory.
const testRepo = ".."

// mixSample is how many fleet-mixed ops the tests draw.
const mixSample = 20000

func TestSameSeedSameInputs(t *testing.T) {
	examples, err := evalExamples(testRepo)
	if err != nil {
		t.Fatal(err)
	}
	build := func(seed uint64) [][]byte {
		var out [][]byte
		pool, err := evalHotPool(seed, examples)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pool...)
		hot, rejects := hotSet(seed), rejectPool(seed)
		out = append(out, hot...)
		for _, r := range rejects {
			out = append(out, []byte(r.path), r.body)
		}
		for i := uint64(0); i < 2000; i++ {
			r := mixRequest(seed, i, hot, rejects)
			out = append(out, []byte(r.class+" "+r.path), r.body)
		}
		return out
	}
	a, b, other := build(7), build(7), build(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different bodies")
	}
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds generated the same bodies")
	}
	ta, err := profileTrace(7)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := profileTrace(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ta, tb) {
		t.Fatal("the same seed generated different traces")
	}
}

func TestMixSharesOnTarget(t *testing.T) {
	hot, rejects := hotSet(1), rejectPool(1)
	counts := map[string]int{}
	for i := uint64(0); i < mixSample; i++ {
		counts[mixRequest(1, i, hot, rejects).class]++
	}
	for _, m := range mixShares {
		got := float64(counts[m.class]) / mixSample
		if math.Abs(got-m.share) > 0.02 {
			t.Errorf("%s share %.3f, want %.2f ± 0.02", m.class, got, m.share)
		}
	}
}

func TestValidBodiesParse(t *testing.T) {
	examples, err := evalExamples(testRepo)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := evalHotPool(3, examples)
	if err != nil {
		t.Fatal(err)
	}
	for j, b := range append(pool, hotSet(3)...) {
		if _, err := scenario.ParseSpec(b); err != nil {
			t.Errorf("eval body %d: %v", j, err)
		}
	}
	hot, rejects := hotSet(3), rejectPool(3)
	for i := uint64(0); i < mixSample; i++ {
		r := mixRequest(3, i, hot, rejects)
		var err error
		switch r.class {
		case classHit, classMiss:
			_, err = scenario.ParseSpec(r.body)
		case classOptimize:
			_, err = scenario.ParseOptimizeSpec(r.body)
		}
		if err != nil {
			t.Fatalf("op %d (%s): %v", i, r.class, err)
		}
	}
}

func TestMalformedBodiesFail(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for j, r := range rejectPool(seed) {
			var err error
			if r.path == "/v1/optimize" {
				_, err = scenario.ParseOptimizeSpec(r.body)
			} else {
				_, err = scenario.ParseSpec(r.body)
			}
			if err == nil {
				t.Errorf("seed %d reject %d parses: %s", seed, j, r.body)
			}
		}
	}
}

// TestFreshBodiesSucceed checks that the generated specs stay inside the
// model's domain, so no op of a run fails by design: a sample of fresh
// eval and optimize bodies all evaluate.
func TestFreshBodiesSucceed(t *testing.T) {
	hot, rejects := hotSet(5), rejectPool(5)
	ctx := context.Background()
	evals, opts := 0, 0
	for i := uint64(0); evals < 300 || opts < 60; i++ {
		r := mixRequest(5, i, hot, rejects)
		if r.class != classMiss && r.class != classOptimize {
			continue
		}
		want, err := oracle(ctx, r.path, r.body)
		if err != nil || want.reject {
			t.Fatalf("op %d (%s) fails: %v %s", i, r.class, err, r.body)
		}
		if r.class == classMiss {
			evals++
		} else {
			opts++
		}
	}
	for j, b := range hot {
		if _, err := oracle(ctx, "/v1/eval", b); err != nil {
			t.Fatalf("hot body %d fails: %v", j, err)
		}
	}
}

// TestVariantsAskTheSameQuestion checks that every eval-hot spelling
// variant gets exactly the answer its source example gets.
func TestVariantsAskTheSameQuestion(t *testing.T) {
	examples, err := evalExamples(testRepo)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := evalHotPool(9, examples)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for j, v := range pool {
		src := examples[j%len(examples)]
		if bytes.Equal(v, src) {
			t.Errorf("variant %d is spelled like its source", j)
		}
		want, err := oracle(ctx, "/v1/eval", src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := oracle(ctx, "/v1/eval", v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.view, want.view) {
			t.Errorf("variant %d answers differently from its source", j)
		}
	}
}

// TestCheckCatchesWrongAnswers shows the oracle comparison is not
// vacuous: a reply the replica really sent passes, and the same reply
// with one core count changed, a 5xx, or a reject of the wrong kind fails.
func TestCheckCatchesWrongAnswers(t *testing.T) {
	examples, err := evalExamples(testRepo)
	if err != nil {
		t.Fatal(err)
	}
	body := examples[len(examples)-1] // stacked-compression: "cores@cc+lc":18
	want, err := oracle(context.Background(), "/v1/eval", body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	serve.NewServer(serve.Config{}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(body)))
	got := rec.Body.Bytes()
	if err := check(want, "/v1/eval", rec.Code, got); err != nil {
		t.Fatalf("the replica's own reply fails its oracle: %v", err)
	}
	wrong := bytes.Replace(got, []byte(`"cores@cc+lc":18`), []byte(`"cores@cc+lc":19`), 1)
	if bytes.Equal(wrong, got) {
		t.Fatal("reply lacks the expected value")
	}
	for _, c := range []struct {
		name   string
		want   expectation
		status int
		body   []byte
	}{
		{"changed value", want, http.StatusOK, wrong},
		{"server error", want, http.StatusInternalServerError, got},
		{"reject as 5xx", expectation{reject: true}, http.StatusInternalServerError, []byte(`{"kind":"internal"}`)},
		{"reject of the wrong kind", expectation{reject: true}, http.StatusBadRequest, []byte(`{"kind":"internal"}`)},
	} {
		if check(c.want, "/v1/eval", c.status, c.body) == nil {
			t.Errorf("%s passes the check", c.name)
		}
	}
}

// TestTracedPhase drives a short traced fleet-mixed phase: two clients,
// the gateway and both replicas run concurrently with the timers
// switching, every reply checks out, and the books close.
func TestTracedPhase(t *testing.T) {
	ctx := context.Background()
	inst, err := setup(ctx, fleetMixed, 2, testRepo)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	l := newLedger(fleetMixed, "traced")
	p, err := httpPhase(ctx, l, fleetMixed, inst.(*httpInstance), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p.put(l, true, true)
	if l.attempted == 0 || l.failed != 0 {
		t.Fatalf("attempted %d, failed %d: %v", l.attempted, l.failed, l.errs)
	}
	if len(p.replicaUS) == 0 || len(p.gatewayUS) == 0 || len(p.ls.modeMS[0]) == 0 || len(p.ls.modeMS[1]) == 0 {
		t.Fatal("the timers never switched")
	}
	for _, name := range []string{"serve.handler_us", "fleet.self_us", "client.remainder_us", "client.miss_p50_ms"} {
		if _, ok := l.Metrics[name]; !ok {
			t.Errorf("missing %s", name)
		}
	}
	if len(l.accounting) < 3 {
		t.Errorf("accounting lines: %q", l.accounting)
	}
}

// TestMain lets the test binary stand in for the ledger binary when a
// test starts the reference child, which re-executes os.Executable.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-reference" {
		if err := runReference(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestReferenceSlices drives the reference child through a few slices
// and checks that it answers every request and exits when told.
func TestReferenceSlices(t *testing.T) {
	r, err := startRef()
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	for k := 0; k < 3; k++ {
		s, err := r.slice(100 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if s.Ops != len(s.LatMS) || s.rate() <= 0 || s.cpuPerOp() <= 0 {
			t.Fatalf("slice %d: %d ops, %d latencies, rate %v, cpu/op %v", k, s.Ops, len(s.LatMS), s.rate(), s.cpuPerOp())
		}
	}
	if err := r.close(); err != nil {
		t.Fatalf("the reference child exited with %v", err)
	}
}

func TestReferenceHandler(t *testing.T) {
	for _, tc := range []struct {
		body []byte
		want int
	}{{refDoc(), http.StatusOK}, {[]byte(`{"n2":`), http.StatusBadRequest}} {
		rec := httptest.NewRecorder()
		refHandler(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.body, rec.Code, tc.want)
		}
	}
}

// TestLoopLimit checks that a limited closed loop runs exactly the
// indices below its limit, each once, and ends without waiting out d.
func TestLoopLimit(t *testing.T) {
	var next atomic.Uint64
	next.Store(5)
	var mu sync.Mutex
	seen := map[uint64]int{}
	start := time.Now()
	runLoop(2, time.Minute, 105, &next, nil, func(int) func(uint64, tracing) {
		return func(i uint64, _ tracing) {
			mu.Lock()
			seen[i]++
			mu.Unlock()
		}
	})
	if time.Since(start) > 10*time.Second {
		t.Fatal("the loop waited out its duration after reaching its limit")
	}
	if len(seen) != 100 {
		t.Fatalf("ran %d distinct indices, want 100", len(seen))
	}
	for i := uint64(5); i < 105; i++ {
		if seen[i] != 1 {
			t.Fatalf("index %d ran %d times", i, seen[i])
		}
	}
}
