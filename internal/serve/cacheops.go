package serve

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/scaling"
)

// CacheInfoResponse is the GET /v1/cache body: measured occupancy and
// traffic for both caching layers — the rendered-response LRU in front
// and the memoized solver cache underneath — plus the body alias ahead of
// them. ?top=N sizes the hottest-fingerprint rankings (default 10).
type CacheInfoResponse struct {
	ResponseCache RespCacheInfo `json:"response_cache"`
	SolverCache   scaling.Info  `json:"solver_cache"`
	Alias         RespCacheInfo `json:"alias"`
}

// CachePurgeResponse is the DELETE /v1/cache body.
type CachePurgeResponse struct {
	ResponseEntriesPurged int `json:"response_entries_purged"`
	SolverEntriesPurged   int `json:"solver_entries_purged"`
	AliasEntriesPurged    int `json:"alias_entries_purged"`
}

// CacheInfo returns both cache layers' introspection — the same view
// GET /v1/cache serves. Exported so fleet partition tests (and
// embedders) can assert keyspace placement without going through HTTP.
func (s *Server) CacheInfo(topN int) CacheInfoResponse {
	return CacheInfoResponse{
		ResponseCache: s.cache.Info(topN),
		SolverCache:   s.engine.Cache.Info(topN),
		Alias:         s.alias.Info(),
	}
}

func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	topN := 10
	if v := r.URL.Query().Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, r, http.StatusBadRequest, kindBadRequest,
				fmt.Errorf("invalid top %q (want a non-negative integer)", v))
			return
		}
		topN = n
	}
	writeJSON(w, http.StatusOK, s.CacheInfo(topN))
}

// handleCacheDelete empties both cache layers and the body alias (fleet
// ops: after a model or catalog change, stale rendered responses,
// memoized solves and body → fingerprint mappings must not survive).
// Lifetime hit/miss counters are preserved.
func (s *Server) handleCacheDelete(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, CachePurgeResponse{
		ResponseEntriesPurged: s.cache.Purge(),
		SolverEntriesPurged:   s.engine.Cache.Purge(),
		AliasEntriesPurged:    s.alias.Purge(),
	})
}
