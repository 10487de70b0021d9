package serve

import "net/http"

// ValidateResponse is the POST /v1/validate success body: the spec
// parsed and validated without a single solver call. Fingerprint is the
// same canonical key /v1/eval caches (and the fleet gateway routes) on,
// so an editor can show which replica/cache entry a spec will land in
// before ever evaluating it.
type ValidateResponse struct {
	Valid       bool   `json:"valid"`
	ID          string `json:"id"`
	Title       string `json:"title,omitempty"`
	Fingerprint string `json:"fingerprint"`
	Cases       int    `json:"cases"`
}

// handleValidate parses and validates a scenario.Spec JSON body —
// catalog names, envelope, axis, the full strict-parse path — without
// evaluating anything. Invalid specs get the robust taxonomy error body
// (ErrDomain → 400 "domain"), exactly what /v1/eval would have said,
// which makes this the cheap per-keystroke check: no admission slot, no
// deadline, no solver work. It shares the eval route's alias, so a body
// validated here is hashed, not parsed, by its first /v1/eval.
func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	q, err := EvalRoute.Resolve(r.Context(), s.alias, r.Body)
	if err == nil {
		_, err = EvalRoute.Spec(r.Context(), &q)
	}
	if err != nil {
		writeModelError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, ValidateResponse{
		Valid:       true,
		ID:          q.Spec.ID,
		Title:       q.Spec.Title,
		Fingerprint: q.FP,
		Cases:       len(q.Spec.Cases),
	})
}
