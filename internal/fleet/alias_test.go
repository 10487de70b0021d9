package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/serve"
)

// respelledSpec is specWithID's spec with its members reordered and
// spaced out: the same canonical fingerprint, different bytes.
func respelledSpec(id string, n2 float64) string {
	return fmt.Sprintf("{ \"cases\": [ {\"value_key\": \"cores\", \"label\": \"BASE\"} ],\n \"axis\": {\"n2\": [%g]}, \"id\": %q }", n2, id)
}

func deleteCache(t *testing.T, g *Gateway) CacheFanout {
	t.Helper()
	w := httptest.NewRecorder()
	g.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodDelete, "/v1/cache", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("DELETE /v1/cache = %d: %s", w.Code, w.Body)
	}
	var fan CacheFanout
	if err := json.Unmarshal(w.Body.Bytes(), &fan); err != nil {
		t.Fatalf("decoding fan-out body: %v", err)
	}
	return fan
}

// TestGatewayAliasRoutesRepeats: a repeated body, resolved through the
// gateway's alias instead of a parse, routes to the replica that served
// its first sight — the one replica caching it under the same canonical
// fingerprint — and so does a new spelling of the same spec.
func TestGatewayAliasRoutesRepeats(t *testing.T) {
	g, fronts, servers := newServeFleet(t, 3, nil)
	const specs = 8
	for i := 0; i < specs; i++ {
		id, n2 := fmt.Sprintf("alias-%d", i), float64(16+i)
		body := specWithID(id, n2)
		first := postGateway(t, g, "/v1/eval", body)
		if first.Code != http.StatusOK {
			t.Fatalf("spec %d: status %d: %s", i, first.Code, first.Body)
		}
		owner := first.Header().Get(ReplicaHeader)
		for _, b := range []string{body, respelledSpec(id, n2), respelledSpec(id, n2)} {
			w := postGateway(t, g, "/v1/eval", b)
			if got := w.Header().Get(ReplicaHeader); got != owner {
				t.Errorf("spec %d: repeat routed to %s, first sight to %s", i, got, owner)
			}
			if w.Header().Get(serve.CacheHeader) != "hit" || w.Body.String() != first.Body.String() {
				t.Errorf("spec %d: repeat = %s, want the first-sight body as a hit", i, w.Header().Get(serve.CacheHeader))
			}
		}
		fp := fingerprintOf(t, body)[:12]
		for ri, s := range servers {
			top := s.CacheInfo(specs * 2).ResponseCache.Top
			holds := slices.ContainsFunc(top, func(e serve.RespEntryInfo) bool { return e.Fingerprint == fp })
			if want := fronts[ri].URL == owner; holds != want {
				t.Errorf("spec %d: replica %d holds fingerprint %s = %t, want %t", i, ri, fp, holds, want)
			}
		}
	}
	if got := g.AliasLen(); got != 2*specs {
		t.Errorf("gateway alias = %d entries, want %d (two spellings per spec)", got, 2*specs)
	}
}

// TestGatewayAliasRejectsNeverRouted: a body the parser rejects is never
// aliased, so every repeat of it is parsed again and answered 400 without
// a ring attempt; the same bytes as a valid eval body on /v1/optimize
// are likewise the optimize route's reject.
func TestGatewayAliasRejectsNeverRouted(t *testing.T) {
	g, _ := newTestGateway(t, 3, nil)
	bad := `{"id":"dom","axis":{"n2":[16]},"cases":[{"label":"X","value_key":"v","stack":[{"name":"NOPE"}]}]}`
	good := specWithID("cross", 16)
	if w := postGateway(t, g, "/v1/eval", good); w.Code != http.StatusOK {
		t.Fatalf("valid eval = %d: %s", w.Code, w.Body)
	}
	hits := g.ReplicaHits()
	aliases := g.AliasLen()
	for pass := 0; pass < 3; pass++ {
		for _, c := range []struct{ path, body string }{{"/v1/eval", bad}, {"/v1/optimize", good}} {
			w := postGateway(t, g, c.path, c.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("%s pass %d = %d, want 400: %s", c.path, pass, w.Code, w.Body)
			}
			if got := w.Header().Get(AttemptsHeader); got != "0" {
				t.Errorf("%s pass %d: attempts = %s, want 0", c.path, pass, got)
			}
		}
	}
	if got := g.ReplicaHits(); fmt.Sprint(got) != fmt.Sprint(hits) {
		t.Errorf("rejects reached the ring: replica attempts %v → %v", hits, got)
	}
	if g.AliasLen() != aliases {
		t.Errorf("gateway alias grew %d → %d on rejected bodies", aliases, g.AliasLen())
	}
}

// TestGatewayAliasPurge: DELETE /v1/cache empties the gateway's body
// alias along with its stale reserve and reports both counts.
func TestGatewayAliasPurge(t *testing.T) {
	g, _ := newTestGateway(t, 2, nil)
	for _, b := range []string{specWithID("purge-a", 16), respelledSpec("purge-a", 16), specWithID("purge-b", 17)} {
		if w := postGateway(t, g, "/v1/eval", b); w.Code != http.StatusOK {
			t.Fatalf("warmup status %d: %s", w.Code, w.Body)
		}
	}
	if g.AliasLen() != 3 || g.StaleLen() != 2 {
		t.Fatalf("alias %d / stale %d entries, want 3 / 2", g.AliasLen(), g.StaleLen())
	}
	fan := deleteCache(t, g)
	if fan.AliasPurged == nil || *fan.AliasPurged != 3 || fan.StalePurged == nil || *fan.StalePurged != 2 {
		t.Errorf("alias_purged = %v, stale_purged = %v, want 3 and 2", fan.AliasPurged, fan.StalePurged)
	}
	if g.AliasLen() != 0 || g.StaleLen() != 0 {
		t.Errorf("alias %d / stale %d entries after DELETE /v1/cache, want 0 / 0", g.AliasLen(), g.StaleLen())
	}
}

// TestGatewayAliasPurgeUnderLoad runs repeated bodies through the gateway
// over real replicas while DELETE /v1/cache purges both tiers in a loop.
// Every request answers 200, and across the fleet the replicas' response
// caches were probed exactly once per gateway request.
func TestGatewayAliasPurgeUnderLoad(t *testing.T) {
	g, _, servers := newServeFleet(t, 2, nil)
	const workers = 4
	const perWorker = 30
	errc := make(chan error, workers+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				body := specWithID(fmt.Sprintf("load-%d", i%3), 16+float64(i%3))
				if i%2 == 1 {
					body = respelledSpec(fmt.Sprintf("load-%d", i%3), 16+float64(i%3))
				}
				req := httptest.NewRequest(http.MethodPost, "/v1/eval", strings.NewReader(body))
				rec := httptest.NewRecorder()
				g.Handler().ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errc <- fmt.Errorf("worker %d request %d: status %d: %s", w, i, rec.Code, rec.Body)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			rec := httptest.NewRecorder()
			g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/cache", nil))
			_, _ = io.Copy(io.Discard, rec.Body)
			if rec.Code != http.StatusOK {
				errc <- fmt.Errorf("purge %d: status %d", i, rec.Code)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	var lookups uint64
	for _, s := range servers {
		info := s.CacheInfo(0).ResponseCache
		lookups += info.Hits + info.Misses
	}
	if lookups != workers*perWorker {
		t.Errorf("fleet response-cache hits+misses = %d, want %d (one lookup per request)", lookups, workers*perWorker)
	}
	deleteCache(t, g)
	if g.AliasLen() != 0 {
		t.Errorf("gateway alias = %d entries after the final purge, want 0", g.AliasLen())
	}
}
