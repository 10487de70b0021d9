package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/scaling"
	"repro/internal/scenario"
)

// CacheHeader names the response header carrying the cache disposition
// ("hit", "miss", "shared"). Exported so the fleet gateway can relay the
// disposition its clients use to observe end-to-end caching.
const CacheHeader = "X-Bandwall-Cache"

// EvalResponse is the POST /v1/eval response body.
type EvalResponse struct {
	ID     string             `json:"id"`
	Title  string             `json:"title,omitempty"`
	Values map[string]float64 `json:"values,omitempty"`
	Points []EvalPoint        `json:"points"`
	// Report is the rendered text report — the same tables `bandwall
	// eval` prints.
	Report string `json:"report"`
	// Cache reports the solver-cache traffic of the underlying
	// evaluation (cached responses replay the original solve's stats).
	Cache CacheStats `json:"cache"`
}

// EvalPoint is one solved (case, axis) cell.
type EvalPoint struct {
	Case  string  `json:"case"`
	Ratio float64 `json:"ratio"`
	N2    float64 `json:"n2"`
	Cores int     `json:"cores"`
	Exact float64 `json:"exact"`
	// BindingWall names the constraint that limits this cell; Walls
	// reports every wall's limit, usage, and headroom at the solved core
	// count ("bandwidth" alone for legacy single-envelope specs).
	BindingWall string                 `json:"binding_wall,omitempty"`
	Walls       []scaling.WallHeadroom `json:"walls,omitempty"`
}

// CacheStats is the solver-cache traffic of one evaluation.
type CacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// handleEval evaluates a scenario.Spec JSON body through the serving
// pipeline: hash-first fingerprint → response cache → singleflight →
// shared engine (itself backed by the memoized solver cache) → render
// once, cache, reply.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	serveQuery(s, w, r, EvalRoute, "serve.eval", func(ctx context.Context, sp *scenario.Spec) ([]byte, error) {
		if s.evalGate != nil {
			s.evalGate(ctx, sp)
		}
		o, err := s.engine.Evaluate(ctx, sp)
		if err != nil {
			return nil, err
		}
		return render(ctx, func() ([]byte, error) { return renderOutcome(o) })
	})
}

// serveQuery is the pipeline every spec route shares. rt.Resolve turns
// the body into its canonical fingerprint (from the alias when the exact
// bytes were seen before); the response cache is then probed exactly
// once. On a miss the singleflight leader parses the body if the alias
// skipped that, then runs solve — which computes and renders the
// response — and caches the bytes.
func serveQuery[T any](s *Server, w http.ResponseWriter, r *http.Request, rt Route[T], point string,
	solve func(ctx context.Context, spec T) ([]byte, error)) {
	ctx := r.Context()
	tr := obs.TraceFrom(ctx)

	q, err := rt.Resolve(ctx, s.alias, r.Body)
	if err != nil {
		writeModelError(w, r, err) // ErrBody → 400 "bad_request", ErrDomain → 400 "domain"
		return
	}
	lookSpan := obs.StartTraceSpanLeaf(ctx, StageCacheLookup)
	cached, ok := s.cache.Get(q.FP)
	lookSpan.End()
	if ok {
		s.mCacheHits.Inc()
		tr.SetAttr("cache", "hit")
		writeCached(ctx, w, cached, "hit")
		return
	}
	s.mCacheMiss.Inc()

	// The singleflight stage covers leader work (engine + solver, whose
	// own spans nest under it via sfctx) and follower waiting alike. A
	// leader error is stamped with this trace's ID before the group fans
	// it out, so followers' error bodies name the trace that did the
	// failing work.
	sfctx, sfSpan := obs.StartTraceSpan(ctx, StageSingleflight)
	resp, shared, err := s.flight.Do(q.FP, func() ([]byte, error) {
		// Chaos hook: a seeded BANDWALL_FAULTS plan can make this replica
		// error, hang (sleep), or panic here. Panics are contained by the
		// singleflight group's robust.Safe wrapper into a 500 "panic" body —
		// the failure mode the fleet gateway's failover must absorb.
		if err := robust.Hit(sfctx, point); err != nil {
			return nil, robust.WithTraceID(err, tr.ID())
		}
		spec, err := rt.Spec(sfctx, &q)
		if err != nil {
			return nil, robust.WithTraceID(err, tr.ID())
		}
		rendered, err := solve(sfctx, spec)
		if err != nil {
			return nil, robust.WithTraceID(err, tr.ID())
		}
		s.solveCount.Add(1)
		s.mSolves.Inc()
		s.cache.Put(q.FP, rendered)
		return rendered, nil
	})
	sfSpan.End()
	if shared {
		s.sharedCount.Add(1)
		s.mShared.Inc()
	}
	tr.SetAttr("shared", fmt.Sprintf("%t", shared))
	if err != nil {
		writeModelError(w, r, err)
		return
	}
	flag := "miss"
	if shared {
		flag = "shared"
	}
	tr.SetAttr("cache", flag)
	writeCached(ctx, w, resp, flag)
}

// render runs f as the pipeline's render stage.
func render(ctx context.Context, f func() ([]byte, error)) ([]byte, error) {
	span := obs.StartTraceSpanLeaf(ctx, StageRender)
	defer span.End()
	return f()
}

// writeCached writes a pre-rendered JSON response with its cache
// disposition header, recording the write as a trace stage.
func writeCached(ctx context.Context, w http.ResponseWriter, body []byte, disposition string) {
	span := obs.StartTraceSpanLeaf(ctx, StageWrite)
	defer span.End()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(CacheHeader, disposition)
	// Declare the length: bodies past net/http's 2 KiB buffer would
	// otherwise go out chunked, and a reader (the fleet gateway) could not
	// size its buffer up front.
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// FingerprintSpec derives the response-cache and singleflight key: the
// SHA-256 of the parsed spec's canonical JSON. Marshaling the *parsed*
// struct (not the request bytes) normalizes field order, whitespace,
// and numeric spellings, so two textually different bodies describing
// the same query collapse onto one key — the request-level analogue of
// the PR-4 solver-cache fingerprint. Exported because the fleet gateway
// routes on exactly this key: the fingerprint that names a response in
// a replica's cache is the fingerprint that picks the replica.
//
// It calls the canonical MarshalJSON directly: its output is already
// compact and HTML-escaped, so json.Marshal's re-validation and
// re-compaction pass would only copy the same bytes again.
func FingerprintSpec(sp *scenario.Spec) (string, error) {
	canon, err := sp.MarshalJSON()
	if err != nil {
		return "", fmt.Errorf("canonicalizing spec: %w", err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// renderOutcome builds the response body bytes for one evaluated
// outcome.
func renderOutcome(o *scenario.Outcome) ([]byte, error) {
	resp := EvalResponse{
		ID:     o.Spec.ID,
		Title:  o.Spec.Title,
		Values: o.Values,
		Points: make([]EvalPoint, 0, len(o.Points)),
		Cache:  CacheStats{Hits: o.CacheHits, Misses: o.CacheMisses},
	}
	labels := make([]string, len(o.Spec.Cases))
	for i, c := range o.Spec.Cases {
		labels[i] = c.Label
		if labels[i] == "" {
			labels[i] = fmt.Sprintf("case %d", i)
		}
	}
	for _, pt := range o.Points {
		resp.Points = append(resp.Points, EvalPoint{
			Case:        labels[pt.Case],
			Ratio:       pt.Gen.Ratio,
			N2:          pt.Gen.N,
			Cores:       pt.Cores,
			Exact:       pt.Exact,
			BindingWall: pt.Binding,
			Walls:       pt.Walls,
		})
	}
	var report strings.Builder
	tables, charts := o.Render()
	for _, tb := range tables {
		report.WriteString(tb.String())
	}
	for _, ch := range charts {
		report.WriteString(ch.String())
	}
	resp.Report = report.String()
	return json.Marshal(resp)
}
