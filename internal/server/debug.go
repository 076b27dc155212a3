// Decision-provenance debug surface:
//
//	GET  /debug/events                → journaled candidate-lifecycle events
//	GET  /debug/matches               → retained match provenance records
//	GET  /debug/matches/{id}          → one match's explain record
//
// Events and records come from the process-wide trace journal; they are
// non-empty only when the service was started with tracing armed
// (vcdserve -trace-events / -audit-fraction). The endpoints are read-only.
package server

import (
	"net/http"
	"strconv"
	"strings"

	"vdsms/internal/trace"
)

// handleDebugEvents serves the journal's retained lifecycle events,
// oldest first. Filters: ?stream=name, ?query=id, ?kind=name (born,
// extended, pruned, dropped, expired, reported, near_miss), ?since=seq,
// ?limit=n (default 256, 0 = all retained).
func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	f := trace.Filter{
		Stream: q.Get("stream"),
		Kind:   trace.KindAny,
		Limit:  256,
	}
	if v := q.Get("kind"); v != "" {
		k, ok := trace.ParseKind(v)
		if !ok {
			http.Error(w, "unknown event kind "+strconv.Quote(v), http.StatusBadRequest)
			return
		}
		f.Kind = k
	}
	if v := q.Get("query"); v != "" {
		id, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "query must be an integer id", http.StatusBadRequest)
			return
		}
		f.QID = id
	}
	if v := q.Get("since"); v != "" {
		seq, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "since must be a sequence number", http.StatusBadRequest)
			return
		}
		f.SinceSeq = seq
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "limit must be a non-negative integer", http.StatusBadRequest)
			return
		}
		f.Limit = n
	}
	evs := trace.Default.Events(f)
	writeJSON(w, map[string]any{
		"tracing": s.root.Tracing(),
		"total":   trace.Default.EventCount(),
		"events":  evs,
	})
}

// handleDebugMatches serves match provenance: /debug/matches lists the
// retained records (?limit=n, default 64), /debug/matches/{id} returns one
// explain record by journal id.
func (s *Server) handleDebugMatches(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/debug/matches")
	rest = strings.TrimPrefix(rest, "/")
	if rest == "" {
		limit := 64
		if v := r.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "limit must be a non-negative integer", http.StatusBadRequest)
				return
			}
			limit = n
		}
		writeJSON(w, map[string]any{
			"tracing": s.root.Tracing(),
			"matches": trace.Default.Matches(limit),
		})
		return
	}
	id, err := strconv.ParseUint(rest, 10, 64)
	if err != nil || id == 0 {
		http.Error(w, "match id must be a positive integer", http.StatusBadRequest)
		return
	}
	rec, ok := trace.Default.Match(id)
	if !ok {
		http.Error(w, "no retained record for match "+rest, http.StatusNotFound)
		return
	}
	writeJSON(w, rec)
}
