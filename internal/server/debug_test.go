package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"vdsms"
)

// traceServer builds a server with decision-provenance tracing and the
// exact-audit channel armed. rootName keeps journal streams of different
// tests apart (the trace journal is process-wide).
func traceServer(t *testing.T, rootName string) (*Server, *httptest.Server) {
	t.Helper()
	cfg := vdsms.DefaultConfig()
	cfg.K = 400
	cfg.Delta = 0.6
	cfg.TraceEvents = 8192
	cfg.AuditFraction = 1
	cfg.StreamName = rootName
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp := do(t, http.MethodGet, url, nil)
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

type debugEvent struct {
	Seq      uint64  `json:"seq"`
	Stream   string  `json:"stream"`
	Kind     string  `json:"kind"`
	Query    int     `json:"query"`
	Estimate float64 `json:"estimate"`
}

func TestDebugEventsAndMatches(t *testing.T) {
	_, ts := traceServer(t, "dbg-root")
	query := clip(t, 5, 20)
	do(t, http.MethodPut, ts.URL+"/queries/7", query).Body.Close()

	var stream bytes.Buffer
	err := vdsms.ComposeStream(&stream, 75, 1,
		bytes.NewReader(clip(t, 100, 30)),
		bytes.NewReader(query),
		bytes.NewReader(clip(t, 101, 30)),
	)
	if err != nil {
		t.Fatal(err)
	}
	events, _ := streamAndParse(t, ts, "dbg-ch", stream.Bytes())
	if len(events) == 0 {
		t.Fatal("no matches streamed; nothing to explain")
	}

	// Reported events for the monitored stream, filtered by kind and query.
	var evResp struct {
		Tracing bool         `json:"tracing"`
		Total   uint64       `json:"total"`
		Events  []debugEvent `json:"events"`
	}
	if code := getJSON(t, ts.URL+"/debug/events?stream=dbg-ch&kind=reported&query=7&limit=0", &evResp); code != 200 {
		t.Fatalf("GET /debug/events: %d", code)
	}
	if !evResp.Tracing || evResp.Total == 0 {
		t.Errorf("tracing=%v total=%d", evResp.Tracing, evResp.Total)
	}
	if len(evResp.Events) == 0 {
		t.Fatal("no reported events journaled for the detected copy")
	}
	for _, ev := range evResp.Events {
		if ev.Kind != "reported" || ev.Query != 7 || ev.Stream != "dbg-ch" {
			t.Errorf("filter leaked event %+v", ev)
		}
		if ev.Estimate < 0.6 {
			t.Errorf("reported event below δ: %+v", ev)
		}
	}

	// Bad filter values are rejected.
	for _, q := range []string{"kind=bogus", "query=x", "since=-1", "limit=-2"} {
		resp := do(t, http.MethodGet, ts.URL+"/debug/events?"+q, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /debug/events?%s: %d, want 400", q, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// The match list holds provenance for our stream; each record explains
	// itself by id, audited against Theorem 1's bound.
	var mResp struct {
		Tracing bool                `json:"tracing"`
		Matches []vdsms.MatchRecord `json:"matches"`
	}
	if code := getJSON(t, ts.URL+"/debug/matches?limit=0", &mResp); code != 200 {
		t.Fatalf("GET /debug/matches: %d", code)
	}
	checked := 0
	for _, rec := range mResp.Matches {
		if rec.Stream != "dbg-ch" {
			continue
		}
		checked++
		if rec.QueryID != 7 {
			t.Errorf("record for query %d", rec.QueryID)
		}
		var one vdsms.MatchRecord
		if code := getJSON(t, fmt.Sprintf("%s/debug/matches/%d", ts.URL, rec.ID), &one); code != 200 {
			t.Fatalf("GET /debug/matches/%d: %d", rec.ID, code)
		}
		if one.ID != rec.ID || one.Stream != "dbg-ch" || len(one.Trajectory) == 0 {
			t.Errorf("explain record %+v", one)
		}
		if one.Audit == nil {
			t.Errorf("match %d not audited despite AuditFraction=1", rec.ID)
		} else if one.Audit.Violated {
			t.Errorf("match %d violates the sketch error bound: %+v", rec.ID, one.Audit)
		}
	}
	if checked == 0 {
		t.Error("no provenance records for the monitored stream")
	}

	// Unknown and malformed ids.
	resp := do(t, http.MethodGet, ts.URL+"/debug/matches/99999999", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown match id: %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	resp = do(t, http.MethodGet, ts.URL+"/debug/matches/zero", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed match id: %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	resp = do(t, http.MethodPost, ts.URL+"/debug/events", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /debug/events: %d, want 405", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestDebugUntracedServer(t *testing.T) {
	_, ts := testServer(t) // tracing not armed
	var evResp struct {
		Tracing bool `json:"tracing"`
	}
	if code := getJSON(t, ts.URL+"/debug/events?stream=no-such-stream", &evResp); code != 200 {
		t.Fatalf("GET /debug/events: %d", code)
	}
	if evResp.Tracing {
		t.Error("untraced server claims tracing")
	}
}
