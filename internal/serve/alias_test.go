package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// exampleBodies loads examples/scenarios/*.json, keyed by file name.
func exampleBodies(t *testing.T) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example scenarios found (%v)", err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = b
	}
	return out
}

// exampleRoute is the route an example spec belongs to.
func exampleRoute(name string) string {
	if strings.HasPrefix(name, "optimize") {
		return "optimize"
	}
	return "eval"
}

// respell re-emits one JSON value from dec with every object's members
// in reverse order and sep between tokens: the same spec, new bytes.
func respell(dec *json.Decoder, sep string) (string, error) {
	tok, err := dec.Token()
	if err != nil {
		return "", err
	}
	d, ok := tok.(json.Delim)
	if !ok {
		b, err := json.Marshal(tok) // json.Number keeps its literal
		return string(b), err
	}
	var parts []string
	for dec.More() {
		var key string
		if d == '{' {
			k, err := dec.Token()
			if err != nil {
				return "", err
			}
			kb, _ := json.Marshal(k)
			key = string(kb) + ":" + sep
		}
		v, err := respell(dec, sep)
		if err != nil {
			return "", err
		}
		parts = append(parts, key+v)
	}
	if _, err := dec.Token(); err != nil { // closing delimiter
		return "", err
	}
	if d == '{' {
		slices.Reverse(parts)
		return "{" + sep + strings.Join(parts, ","+sep) + sep + "}", nil
	}
	return "[" + strings.Join(parts, ","+sep) + "]", nil
}

// spellings returns distinct byte spellings of one spec body: compact,
// tab-indented, member order reversed (two separators), and padded with
// surrounding whitespace.
func spellings(t *testing.T, body []byte) [][]byte {
	t.Helper()
	var compact, indented bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		t.Fatal(err)
	}
	if err := json.Indent(&indented, compact.Bytes(), "", "\t"); err != nil {
		t.Fatal(err)
	}
	out := [][]byte{compact.Bytes(), indented.Bytes()}
	for _, sep := range []string{"", "\n "} {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.UseNumber()
		s, err := respell(dec, sep)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, []byte(s))
	}
	out = append(out, append(append([]byte("\n  "), compact.Bytes()...), "\n\n"...))
	for i, a := range out {
		if bytes.Equal(a, body) {
			t.Fatalf("spelling %d repeats the original bytes", i)
		}
		for _, b := range out[:i] {
			if bytes.Equal(a, b) {
				t.Fatalf("spelling %d repeats an earlier one", i)
			}
		}
	}
	return out
}

func post(t *testing.T, base, route string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/"+route, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestAliasDifferential drives every example spec through the hash-first
// path against its first sight, which takes the strict parse: repeats
// and new spellings must come back byte-identical and as cache hits,
// rejected bodies must stay rejected without ever being aliased, and the
// route domain must keep identical bytes on /v1/eval and /v1/optimize
// apart.
func TestAliasDifferential(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{}, nil)
	examples := exampleBodies(t)
	names := make([]string, 0, len(examples))
	for name := range examples {
		names = append(names, name)
	}
	slices.Sort(names)

	for _, name := range names {
		body, route := examples[name], exampleRoute(name)
		resp, first := post(t, ts.URL, route, body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get(CacheHeader) != "miss" {
			t.Fatalf("%s: first sight = %d %s, want 200 miss: %s", name, resp.StatusCode, resp.Header.Get(CacheHeader), first)
		}
		aliases := s.alias.Len()
		resp, again := post(t, ts.URL, route, body)
		if resp.Header.Get(CacheHeader) != "hit" || !bytes.Equal(again, first) {
			t.Errorf("%s: alias-hit reply (%s) differs from the first-sight reply", name, resp.Header.Get(CacheHeader))
		}
		if s.alias.Len() != aliases {
			t.Errorf("%s: repeat grew the alias %d → %d", name, aliases, s.alias.Len())
		}
		for i, sp := range spellings(t, body) {
			for pass := 0; pass < 2; pass++ {
				resp, got := post(t, ts.URL, route, sp)
				if resp.StatusCode != http.StatusOK || resp.Header.Get(CacheHeader) != "hit" {
					t.Errorf("%s spelling %d pass %d: %d %s, want a 200 hit (one canonical entry per spec)",
						name, i, pass, resp.StatusCode, resp.Header.Get(CacheHeader))
				}
				if !bytes.Equal(got, first) {
					t.Errorf("%s spelling %d pass %d: reply differs from the first-sight reply", name, i, pass)
				}
			}
		}
		if want := aliases + len(spellings(t, body)); s.alias.Len() != want {
			t.Errorf("%s: alias holds %d entries, want %d (one per distinct spelling)", name, s.alias.Len(), want)
		}

		// The same bytes on the other route are that route's reject: the
		// alias entry above must not serve them.
		other := "optimize"
		if route == "optimize" {
			other = "eval"
		}
		before := s.alias.Len()
		for pass := 0; pass < 2; pass++ {
			if resp, got := post(t, ts.URL, other, body); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s on /v1/%s pass %d = %d, want 400 (cross-route alias): %s", name, other, pass, resp.StatusCode, got)
			}
		}
		if s.alias.Len() != before {
			t.Errorf("%s: rejected cross-route bytes were aliased", name)
		}
	}
	if got := s.CacheInfo(0).ResponseCache.Entries; got != len(examples) {
		t.Errorf("response cache holds %d entries, want %d (the canonical fingerprint is the key of record)", got, len(examples))
	}

	malformed := []string{
		``,
		`{`,
		`[]`,
		`{"id":"x"}`,
		`{"id":"x","axis":{"n2":[32]},"cases":[{"label":"B","value_key":"v"}]} trailing`,
		`{"id":"x","axis":{"n2":[32]},"cases":[{"label":"B","value_key":"v"}],"bogus":1}`,
		`{"id":"x","axis":{"n2":[-4]},"cases":[{"label":"B","value_key":"v"}]}`,
		`{"id":"x","axis":{"n2":[32]},"cases":[{"label":"B","value_key":"v","stack":[{"name":"NOPE"}]}]}`,
	}
	before := s.alias.Len()
	for _, route := range []string{"eval", "optimize"} {
		for i, bad := range malformed {
			var firstErr httpError
			for pass := 0; pass < 3; pass++ {
				resp, got := post(t, ts.URL, route, []byte(bad))
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("/v1/%s malformed %d pass %d = %d, want 400: %s", route, i, pass, resp.StatusCode, got)
				}
				he := decodeError(t, got)
				he.Trace = "" // each request has its own trace
				if pass == 0 {
					firstErr = he
				} else if he != firstErr {
					t.Errorf("/v1/%s malformed %d pass %d: %+v, want the first reject %+v", route, i, pass, he, firstErr)
				}
			}
		}
	}
	if s.alias.Len() != before {
		t.Errorf("alias grew %d → %d on rejected bodies", before, s.alias.Len())
	}
}

// TestAliasEvictedResponse: an alias hit whose response has left the
// cache falls back to the parse path — the singleflight leader parses
// the body — with exactly one response-cache lookup per request.
func TestAliasEvictedResponse(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{}, nil)
	_, first := postEval(t, ts.URL, stackedSpec)
	s.cache.Purge()
	resp, again := postEval(t, ts.URL, stackedSpec)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(CacheHeader) != "miss" {
		t.Fatalf("evicted alias hit = %d %s, want 200 miss", resp.StatusCode, resp.Header.Get(CacheHeader))
	}
	var a, b EvalResponse
	if err := json.Unmarshal(first, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(again, &b); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Values, a.Points) != fmt.Sprint(b.Values, b.Points) {
		t.Errorf("re-solved reply differs from the first: %v vs %v", b.Values, a.Values)
	}
	ti := fetchTrace(t, ts.URL, resp.Header.Get(TraceHeader))
	if ti.Attrs["alias"] != "hit" {
		t.Errorf("attrs[alias] = %q, want hit", ti.Attrs["alias"])
	}
	sf := stageSet(ti)[StageSingleflight]
	var parsedUnder bool
	for _, sp := range ti.Spans {
		parsedUnder = parsedUnder || (sp.Name == StageParse && sp.Parent == sf.ID)
	}
	if !parsedUnder {
		t.Errorf("no parse span under singleflight: %+v", ti.Spans)
	}
	if info := s.CacheInfo(0).ResponseCache; info.Hits+info.Misses != 2 {
		t.Errorf("response cache hits+misses = %d, want 2 (one lookup per request)", info.Hits+info.Misses)
	}
}

// TestAliasPurgeUnderLoad runs alias-hit load against a concurrent
// DELETE /v1/cache loop. Every request must still answer 200, the
// purges must leave the alias empty, and the response cache must have
// been probed exactly once per request — an alias hit whose response was
// purged falls back to the parse path without a second lookup.
func TestAliasPurgeUnderLoad(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{}, nil)
	examples := exampleBodies(t)
	var bodies [][]byte
	for name, b := range examples {
		if exampleRoute(name) == "eval" {
			bodies = append(bodies, b)
		}
	}

	const workers = 4
	const perWorker = 40
	errc := make(chan error, workers+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Post(ts.URL+"/v1/eval", "application/json", bytes.NewReader(bodies[(w+i)%len(bodies)]))
				if err != nil {
					errc <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("worker %d request %d: status %d", w, i, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/cache", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errc <- err
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	var info CacheInfoResponse
	getJSON(t, ts.URL+"/v1/cache", &info)
	if got := info.ResponseCache.Hits + info.ResponseCache.Misses; got != workers*perWorker {
		t.Errorf("response cache hits+misses = %d, want %d (one lookup per request)", got, workers*perWorker)
	}
	if got := info.Alias.Hits + info.Alias.Misses; got != workers*perWorker {
		t.Errorf("alias hits+misses = %d, want %d", got, workers*perWorker)
	}
	var purged CachePurgeResponse
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/cache", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&purged); err != nil {
		t.Fatal(err)
	}
	if purged.AliasEntriesPurged != info.Alias.Entries || s.alias.Len() != 0 {
		t.Errorf("final purge dropped %d aliases of %d, %d left", purged.AliasEntriesPurged, info.Alias.Entries, s.alias.Len())
	}
}
