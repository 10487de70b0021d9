package serve

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/obs"
	"repro/internal/robust"
)

// Error kinds carried in JSON error bodies. They mirror the robust
// taxonomy plus the serving-layer conditions, so clients can branch on
// a stable string instead of parsing messages.
const (
	kindDomain     = "domain"      // robust.ErrDomain: bad spec or parameters → 400
	kindBadRequest = "bad_request" // malformed request around the model (query params, body size) → 400
	kindNotFound   = "not_found"   // unknown experiment id or route → 404
	kindCanceled   = "canceled"    // deadline expiry or client disconnect → 504
	kindPanic      = "panic"       // contained panic inside a solve → 500
	kindSaturated  = "saturated"   // admission semaphore full → 429
	kindInternal   = "internal"    // anything else → 500
	// kindUnavailable marks a replica refusing work without being broken:
	// injected admission faults here, total-ring failure at the gateway.
	// Always paired with Retry-After → 503.
	kindUnavailable = "unavailable"
)

// httpError is the JSON error body shape. Trace names the trace whose
// span tree explains the failure — usually this request's own, but for
// singleflight followers the leader's originating solve (stamped on the
// error via robust.WithTraceID), so the follower's error still points
// at the trace that did the work.
type httpError struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
	Trace string `json:"trace,omitempty"`
}

// classify maps a model/solver error onto an HTTP status and error
// kind following the robust taxonomy: an unreadable or oversized body
// is a bad request, domain violations are the
// client's fault, cancellation is a timeout, contained panics and
// everything else are server faults — and none of them may take the
// process down.
func classify(err error) (status int, kind string) {
	var pe *robust.PanicError
	switch {
	case errors.Is(err, ErrBody):
		return http.StatusBadRequest, kindBadRequest
	case errors.Is(err, robust.ErrDomain):
		return http.StatusBadRequest, kindDomain
	case robust.Classify(err) == robust.Canceled:
		return http.StatusGatewayTimeout, kindCanceled
	case errors.As(err, &pe):
		return http.StatusInternalServerError, kindPanic
	default:
		return http.StatusInternalServerError, kindInternal
	}
}

// writeModelError renders err with the taxonomy mapping.
func writeModelError(w http.ResponseWriter, r *http.Request, err error) {
	status, kind := classify(err)
	writeError(w, r, status, kind, err)
}

// writeError writes a JSON error body stamped with the responsible
// trace ID: the one carried by the error if any, else this request's.
func writeError(w http.ResponseWriter, r *http.Request, status int, kind string, err error) {
	trace := robust.TraceIDOf(err)
	if trace == "" && r != nil {
		trace = obs.TraceFrom(r.Context()).ID()
	}
	writeJSON(w, status, httpError{Error: err.Error(), Kind: kind, Trace: trace})
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the status line is already committed; nothing useful to do
}
