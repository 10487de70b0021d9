package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
)

// registrySpanCap mirrors `bandwall serve` and `bandwall gateway`: a
// long-lived server caps its span log.
const registrySpanCap = 1024

// conns is the closed-loop client count: nproc on the 2-CPU host the
// ledger was built on, and the number of load-generating goroutines.
const conns = 2

// handlerTimer times calls into one tier's handler from outside. Only
// POST requests (the eval and optimize routes) are timed, and only while
// tracing is on.
type handlerTimer struct {
	on *atomic.Bool
	mu sync.Mutex
	us []float64
}

func (t *handlerTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		d := us(time.Since(start))
		t.mu.Lock()
		t.us = append(t.us, d)
		t.mu.Unlock()
	})
}

// take returns the timed calls so far and resets the timer.
func (t *handlerTimer) take() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.us
	t.us = nil
	return out
}

// sut is the system under test: serve replicas and, for fleet-mixed, the
// gateway in front, all in this process on loopback listeners.
type sut struct {
	replicas []*serve.Server
	urls     []string // replica base URLs
	regs     []*obs.Registry
	gwReg    *obs.Registry
	front    string // the URL clients load

	traced   atomic.Bool
	replicaT handlerTimer
	gatewayT handlerTimer

	ctx     context.Context
	cancel  context.CancelFunc
	servers []*http.Server
	wg      sync.WaitGroup
}

func newRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.SetSpanCap(registrySpanCap)
	return reg
}

// startSUT starts n replicas with default configs, and the gateway over
// them when gateway is set. Each component gets its own obs registry, as
// a separate process would; the last one stays the process default so
// code that resolves instruments lazily still records.
func startSUT(n int, gateway bool) (*sut, error) {
	s := &sut{}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.replicaT.on, s.gatewayT.on = &s.traced, &s.traced
	for i := 0; i < n; i++ {
		reg := newRegistry()
		serve.RegisterObs(reg)
		obs.SetDefault(reg)
		srv := serve.NewServer(serve.Config{})
		url, err := s.listen(s.replicaT.wrap(srv.Handler()))
		if err == nil {
			err = s.sideServe(srv.Serve)
		}
		if err != nil {
			s.close()
			return nil, err
		}
		s.replicas = append(s.replicas, srv)
		s.urls = append(s.urls, url)
		s.regs = append(s.regs, reg)
	}
	s.front = s.urls[0]
	if gateway {
		s.gwReg = newRegistry()
		obs.SetDefault(s.gwReg)
		g, err := fleet.NewGateway(fleet.Config{Replicas: s.urls})
		if err != nil {
			s.close()
			return nil, err
		}
		url, err := s.listen(s.gatewayT.wrap(g.Handler()))
		if err == nil {
			err = s.sideServe(g.Serve)
		}
		if err != nil {
			s.close()
			return nil, err
		}
		s.front = url
	}
	return s, nil
}

// listen serves h on a fresh loopback listener, with the server settings
// the components' own Serve loops use.
func (s *sut) listen(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, srv)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = srv.Serve(l) // returns http.ErrServerClosed after close
	}()
	return "http://" + l.Addr().String(), nil
}

// sideServe runs a component's own Serve loop on a listener that carries
// no load. The loop owns the background work a deployed server does —
// the replica's runtime-gauge sampler, the gateway's replica health
// checks — while the load goes to listeners whose handlers are timed.
func (s *sut) sideServe(serveFn func(context.Context, net.Listener) error) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = serveFn(s.ctx, l) // drains and returns once ctx is canceled
	}()
	return nil
}

// close stops every server and waits for their goroutines.
func (s *sut) close() {
	s.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range s.servers {
		_ = srv.Shutdown(ctx) // a drain past the timeout leaves nothing to report
	}
	s.wg.Wait()
}

// newClient returns the closed-loop client: at most conns connections.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// reply is one HTTP response as the client saw it.
type reply struct {
	status    int
	cache     string // X-Bandwall-Cache disposition
	replica   string // X-Bandwall-Replica (gateway only)
	attempts  int    // X-Bandwall-Attempts (gateway only; -1 when absent)
	latencyMS float64
}

// post sends one request and reads the whole reply body into buf.
func post(client *http.Client, url string, body []byte, buf *bytes.Buffer) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return reply{}, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := ms(time.Since(start))
	if err != nil {
		return reply{}, err
	}
	rp := reply{
		status:    resp.StatusCode,
		cache:     resp.Header.Get(serve.CacheHeader),
		replica:   resp.Header.Get(fleet.ReplicaHeader),
		attempts:  -1,
		latencyMS: lat,
	}
	if a := resp.Header.Get(fleet.AttemptsHeader); a != "" {
		if n, err := strconv.Atoi(a); err == nil {
			rp.attempts = n
		}
	}
	return rp, nil
}

// hotEntry is a body whose answer is known before the load starts: the
// oracle's expectation and the exact bytes the server returned at warm-up.
type hotEntry struct {
	want  expectation
	bytes []byte
}

// pending is a fresh-body response kept for checking after the window.
type pending struct {
	req  request
	rp   reply
	resp []byte
}

// loadStats accumulates one load phase's observations.
type loadStats struct {
	ops, failed int
	latMS       map[string][]float64 // per class
	modeMS      [2][]float64         // a traced run's ops by mode: timers off, timers on
	dispo       map[string]int
	replicas    map[string]int
	attempts    []float64 // per request that reached the ring
	fresh       []pending
	errs        []string
}

func newLoadStats() *loadStats {
	return &loadStats{latMS: map[string][]float64{}, dispo: map[string]int{}, replicas: map[string]int{}}
}

func (ls *loadStats) fail(err error) {
	ls.failed++
	if len(ls.errs) < 5 {
		ls.errs = append(ls.errs, err.Error())
	}
}

func (ls *loadStats) merge(o *loadStats) {
	ls.ops += o.ops
	ls.failed += o.failed
	for k, v := range o.latMS {
		ls.latMS[k] = append(ls.latMS[k], v...)
	}
	for i := range ls.modeMS {
		ls.modeMS[i] = append(ls.modeMS[i], o.modeMS[i]...)
	}
	for k, v := range o.dispo {
		ls.dispo[k] += v
	}
	for k, v := range o.replicas {
		ls.replicas[k] += v
	}
	ls.attempts = append(ls.attempts, o.attempts...)
	ls.fresh = append(ls.fresh, o.fresh...)
	for _, e := range o.errs {
		if len(ls.errs) < 5 {
			ls.errs = append(ls.errs, e)
		}
	}
}

// record keeps one op's latency, and in a traced run also under its
// tracing mode.
func (ls *loadStats) record(class string, latencyMS float64, mode tracing) {
	ls.latMS[class] = append(ls.latMS[class], latencyMS)
	if mode != untracedRun {
		ls.modeMS[mode] = append(ls.modeMS[mode], latencyMS)
	}
}

// all returns every op's latency.
func (ls *loadStats) all() []float64 {
	var out []float64
	for _, v := range ls.latMS {
		out = append(out, v...)
	}
	return out
}

// observe verifies one reply and records it. Hot bodies are checked
// against their warm-up bytes, falling back to the oracle view when the
// bytes differ (a hedged or failed-over answer rendered by another
// replica); rejects are checked at once; fresh replies are kept for the
// oracle after the window.
func (ls *loadStats) observe(req request, rp reply, body []byte, hot []hotEntry, mode tracing) {
	ls.record(req.class, rp.latencyMS, mode)
	if rp.cache != "" {
		ls.dispo[rp.cache]++
	}
	if rp.attempts > 0 {
		ls.attempts = append(ls.attempts, float64(rp.attempts))
		ls.replicas[rp.replica]++
	}
	switch {
	case req.hot >= 0:
		h := hot[req.hot]
		if rp.status == http.StatusOK && bytes.Equal(body, h.bytes) {
			return
		}
		if err := check(h.want, req.path, rp.status, body); err != nil {
			ls.fail(fmt.Errorf("%s hot body %d: %w", req.path, req.hot, err))
		}
	case req.class == classReject:
		if err := check(expectation{reject: true}, req.path, rp.status, body); err != nil {
			ls.fail(err)
		}
	default:
		// Only the model's answer is checked, so the rendered report that
		// follows it is not kept: the memory held for checking stays a
		// small share of the run's.
		var keep []byte
		if k := bytes.Index(body, []byte(`,"report":`)); k > 0 {
			keep = append(body[:k:k], '}') // the capped slice makes append copy
		} else {
			keep = append([]byte(nil), body...)
		}
		ls.fresh = append(ls.fresh, pending{req, rp, keep})
	}
}

// verifyFresh checks every kept fresh reply against its oracle.
func (ls *loadStats) verifyFresh(ctx context.Context) error {
	for _, p := range ls.fresh {
		want, err := oracle(ctx, p.req.path, p.req.body)
		if err != nil {
			return err
		}
		if err := check(want, p.req.path, p.rp.status, p.resp); err != nil {
			ls.fail(fmt.Errorf("%s %s: %w", p.req.class, p.req.path, err))
		}
	}
	ls.fresh = nil
	return nil
}

// tracing is an op's tracing mode.
type tracing int

const (
	timersOff   tracing = iota // a traced run, handler timers off
	timersOn                   // a traced run, handler timers on
	untracedRun                // an end-to-end run: no timers at all
)

// runLoop drives a closed loop: workers goroutines, each running op for
// the next index as soon as its previous op returns, until d has passed
// or, with limit non-zero, until every index below limit has run.
// newOp builds worker c's op with its own state. With flip non-nil the
// tracing flag alternates every flipEvery, so traced and untraced ops
// interleave in time; each op reads the flag as it starts.
func runLoop(workers int, d time.Duration, limit uint64, next *atomic.Uint64, flip *atomic.Bool, newOp func(c int) func(i uint64, mode tracing)) time.Duration {
	const flipEvery = 250 * time.Millisecond
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < workers; c++ {
		op := newOp(c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := next.Add(1) - 1
				if limit > 0 && i >= limit {
					stop.Store(true)
					return
				}
				mode := untracedRun
				if flip != nil {
					mode = timersOff
					if flip.Load() {
						mode = timersOn
					}
				}
				op(i, mode)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	deadline := start.Add(d)
wait:
	for now := time.Now(); now.Before(deadline); now = time.Now() {
		wait := deadline.Sub(now)
		if flip != nil {
			wait = min(wait, flipEvery)
		}
		select {
		case <-done:
			break wait
		case <-time.After(wait):
		}
		if flip != nil {
			flip.Store(!flip.Load())
		}
	}
	stop.Store(true)
	<-done
	elapsed := time.Since(start)
	if flip != nil {
		flip.Store(false)
	}
	return elapsed
}

// runHTTP drives the closed HTTP loop with conns clients against base.
func runHTTP(client *http.Client, base string, gen func(uint64) request, hot []hotEntry, d time.Duration, limit uint64, next *atomic.Uint64, flip *atomic.Bool) (*loadStats, time.Duration) {
	parts := make([]*loadStats, conns)
	elapsed := runLoop(conns, d, limit, next, flip, func(c int) func(uint64, tracing) {
		ls := newLoadStats()
		parts[c] = ls
		var buf bytes.Buffer
		return func(i uint64, mode tracing) {
			req := gen(i)
			rp, err := post(client, base+req.path, req.body, &buf)
			ls.ops++
			if err != nil {
				ls.fail(err)
				return
			}
			ls.observe(req, rp, buf.Bytes(), hot, mode)
		}
	})
	out := newLoadStats()
	for _, p := range parts {
		out.merge(p)
	}
	return out, elapsed
}

// warm sends every body once, checks each reply against its oracle, and
// returns the hot entries the load loop compares against.
func warm(ctx context.Context, client *http.Client, base, path string, bodies [][]byte) ([]hotEntry, error) {
	out := make([]hotEntry, len(bodies))
	var buf bytes.Buffer
	for j, b := range bodies {
		want, err := oracle(ctx, path, b)
		if err != nil {
			return nil, err
		}
		rp, err := post(client, base+path, b, &buf)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := check(want, path, rp.status, buf.Bytes()); err != nil {
			return nil, fmt.Errorf("warm-up body %d: %w", j, err)
		}
		out[j] = hotEntry{want: want, bytes: append([]byte(nil), buf.Bytes()...)}
	}
	return out, nil
}
