// Decision provenance: candidate-lifecycle event tracing and the sampled
// exact-audit channel of the matching kernel.
//
// Tracing is armed per engine with Trace/SetTracer; every recording site in
// the kernels is guarded by one nil check on a per-window recorder pointer
// (windowResult.tr), so a disabled tracer costs nothing — no allocations,
// no atomics, a byte-identical match stream. Shards write lifecycle events
// into single-writer buffers during the parallel phase; the serial spine
// folds them once per window into the journal in a worker-count-invariant
// order, then runs the audit sampler over the folded decisions.
//
// The audit channel (SetAudit) re-derives, for every Nth report and every
// Nth Lemma 2 prune, the exact Jaccard similarity from raw cell-id sets —
// the internal/partition membership path the paper defines similarity on —
// and scores the sketch estimate against Theorem 1's deviation bound. The
// estimator-error histograms and the bound-violation counter make sketch
// misconfiguration (K too small for the operating δ) visible on /metrics
// before it costs recall.
package core

import (
	"math"

	"vdsms/internal/partition"
	"vdsms/internal/trace"
)

// Trace arms candidate-lifecycle event tracing: a recorder for this engine
// is registered with j under streamName (empty auto-names it) and every
// subsequent window's lifecycle events — born, extended, pruned, dropped,
// expired, reported, near_miss — are journaled, with a provenance record
// attached to each emitted match. The near-miss band ε is Theorem 1's
// deviation bound for the engine's K: an estimate within ε of δ could have
// been a report under estimator noise alone.
func (e *Engine) Trace(j *trace.Journal, streamName string) *trace.Recorder {
	r := trace.NewRecorder(j, streamName, e.nshards, e.cfg.Order.String(), e.cfg.Method.String())
	e.SetTracer(r)
	return r
}

// SetTracer installs (or, with nil, removes) a recorder built elsewhere.
// The recorder must have been created with this engine's shard count.
func (e *Engine) SetTracer(r *trace.Recorder) {
	e.trc = r
	e.nearEps = trace.ErrorBound(e.cfg.K, trace.DefaultConfidence)
}

// Tracer returns the armed recorder, or nil.
func (e *Engine) Tracer() *trace.Recorder { return e.trc }

// SetAudit arms the sampled exact-audit channel: every Nth report decision
// and every Nth prune decision is re-derived exactly from raw cell-id sets
// and scored against Theorem 1's bound. every <= 0 disables auditing.
// Auditing requires an armed tracer (decisions are read off the folded
// event stream) and retains one window of raw cell ids per live candidate
// window — the only tracing-on state that grows with λL.
func (e *Engine) SetAudit(every int) {
	if every < 0 {
		every = 0
	}
	e.auditEvery = every
	e.auditBound = trace.ErrorBound(e.cfg.K, trace.DefaultConfidence)
	if every == 0 {
		e.auditWins = nil
	}
}

// auditKey identifies a report decision within one window so its audit
// result can be attached to the match record at emission.
type auditKey struct {
	start, qid int
}

// retainAuditWindow copies the filled window's cell ids into the bounded
// per-window history the exact audit unions candidates from, evicting
// windows no candidate can reach any more.
func (e *Engine) retainAuditWindow(win *windowResult) {
	if e.auditWins == nil {
		e.auditWins = make(map[int][]uint64)
	}
	e.auditWins[win.startFrame] = append([]uint64(nil), e.curIDs...)
	horizon := win.endFrame - (win.maxW+2)*e.cfg.WindowFrames
	for k := range e.auditWins {
		if k < horizon {
			delete(e.auditWins, k)
		}
	}
}

// exactJaccard recomputes the exact set similarity of the candidate
// [start, end) against query qid from raw cell ids. ok is false when the
// raw sets are unavailable — the query predates id retention (checkpoint
// restore) or the candidate spans windows the history no longer holds.
func (e *Engine) exactJaccard(start, end, qid int, view *queryPlane) (float64, bool) {
	q := view.lookup(qid)
	if q == nil || q.cellIDs == nil {
		return 0, false
	}
	var union []uint64
	for ws := start; ws < end; ws += e.cfg.WindowFrames {
		ids, ok := e.auditWins[ws]
		if !ok {
			return 0, false
		}
		union = append(union, ids...)
	}
	if len(union) == 0 {
		return 0, false
	}
	return partition.Jaccard(union, q.cellIDs), true
}

// auditWindow samples the window's folded report and prune decisions,
// audits the sampled ones exactly, publishes the estimator-error metrics
// and parks report audits for attachment to their match records. Runs on
// the serial spine between the event fold and match emission.
func (e *Engine) auditWindow(evs []trace.Event, view *queryPlane) {
	for k := range e.auditRes {
		delete(e.auditRes, k)
	}
	for i := range evs {
		ev := &evs[i]
		var decision int
		switch ev.Kind {
		case trace.Reported:
			e.auditReports++
			if (e.auditReports-1)%uint64(e.auditEvery) != 0 {
				continue
			}
			decision = trace.AuditReport
		case trace.Pruned:
			e.auditPrunes++
			if (e.auditPrunes-1)%uint64(e.auditEvery) != 0 {
				continue
			}
			decision = trace.AuditPrune
		default:
			continue
		}
		exact, ok := e.exactJaccard(int(ev.Start), int(ev.End), int(ev.QID), view)
		if !ok {
			trace.ObserveAuditSkipped()
			continue
		}
		res := trace.AuditResult{
			Exact:    exact,
			Estimate: float64(ev.Estimate),
			Bound:    e.auditBound,
		}
		res.AbsError = math.Abs(res.Estimate - res.Exact)
		res.Violated = res.AbsError > res.Bound
		trace.ObserveAudit(decision, res)
		if ev.Kind == trace.Reported {
			if e.auditRes == nil {
				e.auditRes = make(map[auditKey]*trace.AuditResult)
			}
			r := res
			e.auditRes[auditKey{int(ev.Start), int(ev.QID)}] = &r
		}
	}
}
