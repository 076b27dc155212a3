// Performance-attribution surface: sampled span export, fleet outlier
// top-K, and live sampling control. See internal/perfobs and DESIGN.md §14.
package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"vdsms/internal/perfobs"
)

// handleDebugSpans exports the span ring — sampled windows plus the
// tail-captured ones that blew their stream's real-time budget — (GET,
// oldest first, one JSON object per line; ?limit=N caps the count,
// ?min_total=<duration> keeps only windows whose ingest total, decode +
// extract + window_total, reached it) and retunes span sampling live
// (POST {"sampleEvery": N} — 0 disables, 1 samples every window).
func (s *Server) handleDebugSpans(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		limit := 0
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "limit must be a non-negative integer", http.StatusBadRequest)
				return
			}
			limit = n
		}
		var minTotal time.Duration
		if v := q.Get("min_total"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				http.Error(w, "min_total must be a non-negative Go duration (e.g. 250ms)", http.StatusBadRequest)
				return
			}
			minTotal = d
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := perfobs.Default.WriteSpans(w, limit, minTotal); err != nil {
			// Headers already sent; the connection is the error signal.
			return
		}
	case http.MethodPost:
		var req struct {
			SampleEvery *int64   `json:"sampleEvery"`
			Fraction    *float64 `json:"fraction"`
			AllocEvery  *int64   `json:"allocEvery"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		switch {
		case req.SampleEvery != nil:
			perfobs.Default.SetSampleEvery(*req.SampleEvery)
		case req.Fraction != nil:
			perfobs.Default.SetSampleFraction(*req.Fraction)
		default:
			http.Error(w, `want {"sampleEvery": N} or {"fraction": F}`, http.StatusBadRequest)
			return
		}
		if req.AllocEvery != nil {
			perfobs.Default.SetAllocEvery(*req.AllocEvery)
		}
		writeJSON(w, map[string]any{"sampleEvery": perfobs.Default.SampleEvery()})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleFleetTop reports the fleet outlier top-K: the slowest, most-shed
// and most-backpressured streams by approximate weight (?limit=N caps each
// list; bounded space-saving sketches, no per-stream metric cardinality).
func (s *Server) handleFleetTop(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "limit must be a non-negative integer", http.StatusBadRequest)
			return
		}
		limit = n
	}
	writeJSON(w, perfobs.DefaultOutliers.Report(limit))
}

// perfStatsBlock is the /stats summary of the attribution machinery: the
// sampling state, fold totals, and the top outlier of each category.
func perfStatsBlock() map[string]any {
	agg := perfobs.Default.Aggregate()
	stages := map[string]any{}
	for st := perfobs.Stage(0); st < perfobs.NumStages; st++ {
		sa := agg.Stages[st]
		if sa.Count == 0 {
			continue
		}
		stages[st.String()] = map[string]any{
			"count":  sa.Count,
			"meanNs": agg.MeanNS(st),
			"p99Ns":  agg.Quantile(st, 0.99),
		}
	}
	blk := map[string]any{
		"sampleEvery":  perfobs.Default.SampleEvery(),
		"spansSampled": perfobs.Default.Sampled(),
		"windows":      agg.Windows,
		"allocSampled": agg.AllocSampled,
		"stages":       stages,
	}
	rep := perfobs.DefaultOutliers.Report(1)
	out := map[string]any{}
	if len(rep.Slowest) > 0 {
		out["slowest"] = rep.Slowest[0]
	}
	if len(rep.Shed) > 0 {
		out["shed"] = rep.Shed[0]
	}
	if len(rep.Backpressure) > 0 {
		out["backpressure"] = rep.Backpressure[0]
	}
	if len(out) > 0 {
		blk["outliers"] = out
	}
	return blk
}
