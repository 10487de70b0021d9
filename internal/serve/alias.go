package serve

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// maxSpecBytes bounds a spec request body. The largest shipped example
// spec is under 2 KiB; 1 MiB leaves three orders of magnitude of
// headroom while keeping a hostile client from ballooning the heap.
const maxSpecBytes = 1 << 20

// ErrBody marks a request body that could not be read or exceeds the
// spec size bound: a 400 "bad_request", not a model ("domain") error.
var ErrBody = errors.New("bad request body")

// ReadBody reads a spec request body of at most 1 MiB.
func ReadBody(r io.Reader) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r, maxSpecBytes+1))
	if err != nil {
		return nil, fmt.Errorf("%w: reading body: %v", ErrBody, err)
	}
	if len(body) > maxSpecBytes {
		return nil, fmt.Errorf("%w: spec exceeds %d bytes", ErrBody, maxSpecBytes)
	}
	return body, nil
}

// Alias is the hash-first front of the spec routes: a bounded map from
// route domain + SHA-256(raw body) to the canonical fingerprint that body
// parsed to. A repeated body — the common case for a dashboard polling a
// fixed what-if set — is then hashed and looked up instead of strictly
// parsed and re-marshaled.
//
// It is sound because an entry is added only after the strict parse and
// the canonical fingerprint have both succeeded, and both are pure
// functions of the body: a body the parser rejects never gets an entry,
// and an entry can never name a fingerprint the body would not parse to.
// The key is the full digest, so two bodies share an entry only if
// SHA-256 collides; the domain keeps identical bytes POSTed to different
// routes apart. The canonical fingerprint stays the key of record for the
// response cache, singleflight and gateway routing, so differently
// spelled bodies still collapse onto one entry and one replica.
//
// Both tiers use it: the replica in front of its response cache, the
// fleet gateway in front of rendezvous routing. It is a response-cache
// LRU holding fingerprints instead of rendered bodies.
type Alias struct{ c *respCache }

// NewAlias builds an alias holding up to size entries; like the response
// cache, 0 means DefaultCacheSize and a negative size disables it (every
// body takes the parse path).
func NewAlias(size int) *Alias { return &Alias{c: newRespCache(size)} }

// Len returns the number of aliased bodies.
func (a *Alias) Len() int { return a.c.Len() }

// Purge drops every alias and returns how many were held.
func (a *Alias) Purge() int { return a.c.Purge() }

// Info reports occupancy and lifetime lookups for GET /v1/cache.
func (a *Alias) Info() RespCacheInfo { return a.c.Info(0) }

// Route is one hash-first spec route: the alias domain that keeps its
// entries apart from every other route's, and the strict parse and
// canonical fingerprint that stand behind each entry.
type Route[T any] struct {
	Domain      string
	Parse       func([]byte) (T, error)
	Fingerprint func(T) (string, error)
}

// The spec routes, shared by the replica and the gateway.
var (
	EvalRoute     = Route[*scenario.Spec]{"eval", scenario.ParseSpec, FingerprintSpec}
	OptimizeRoute = Route[*scenario.OptimizeSpec]{"optimize", scenario.ParseOptimizeSpec, FingerprintOptimizeSpec}
)

// Query is one request body resolved to its key of record.
type Query[T any] struct {
	Body []byte
	// FP is the canonical fingerprint: the response-cache, singleflight
	// and gateway-routing key.
	FP string
	// Spec is the strictly parsed body. It is unset when FP came from the
	// alias; Route.Spec parses on demand.
	Spec    T
	Aliased bool
}

// Resolve reads a spec body and resolves it to its canonical
// fingerprint, hash first. The trace keeps the pipeline's stage names:
// "parse" is the body read plus the hash and "fingerprint" the alias
// lookup; on an alias miss a second "parse" (the strict parse) and
// "fingerprint" (the canonical fingerprint) follow, after which the
// body is aliased. Errors wrap ErrBody for unreadable or oversized
// bodies; parse errors keep their robust classification.
func (rt Route[T]) Resolve(ctx context.Context, a *Alias, r io.Reader) (Query[T], error) {
	var q Query[T]
	span := obs.StartTraceSpanLeaf(ctx, StageParse)
	body, err := ReadBody(r)
	if err != nil {
		span.End()
		return q, err
	}
	q.Body = body
	sum := sha256.Sum256(body)
	key := rt.Domain + "\x00" + string(sum[:])
	span.End()

	span = obs.StartTraceSpanLeaf(ctx, StageFingerprint)
	fp, ok := a.c.Get(key)
	span.End()
	tr := obs.TraceFrom(ctx)
	if ok {
		q.FP, q.Aliased = string(fp), true
		tr.SetAttr("alias", "hit")
		return q, nil
	}
	tr.SetAttr("alias", "miss")

	span = obs.StartTraceSpanLeaf(ctx, StageParse)
	q.Spec, err = rt.Parse(body)
	span.End()
	if err != nil {
		return q, err
	}
	span = obs.StartTraceSpanLeaf(ctx, StageFingerprint)
	q.FP, err = rt.Fingerprint(q.Spec)
	if err == nil {
		a.c.Put(key, []byte(q.FP))
	}
	span.End()
	return q, err
}

// Spec returns q's parsed spec, strictly parsing the body when its
// fingerprint came from the alias (a "parse" span under ctx).
func (rt Route[T]) Spec(ctx context.Context, q *Query[T]) (T, error) {
	if !q.Aliased {
		return q.Spec, nil
	}
	span := obs.StartTraceSpanLeaf(ctx, StageParse)
	sp, err := rt.Parse(q.Body)
	span.End()
	if err == nil {
		q.Spec, q.Aliased = sp, false
	}
	return sp, err
}
