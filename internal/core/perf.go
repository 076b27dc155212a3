// The per-window observation record: how an Engine times a window once and
// hands the result to every consumer — stage histograms, the span
// collector (sampling fold, export ring, outliers, slow-window tail
// capture) and the overload controller.
package core

import (
	"time"

	"vdsms/internal/degrade"
	"vdsms/internal/perfobs"
	"vdsms/internal/telemetry"
)

// SetPerf points the engine at a span collector with the given stream
// label ("" for an anonymous engine) and real-time budget: the stream
// duration of one basic window, which a window must process within to
// keep up with live input. Every subsequently processed window offers
// itself to the collector's sampler, and a timed window whose ingest total
// exceeds the budget is tail-captured into the collector's ring even when
// the sampler passed it over (an attached controller's budget takes
// precedence; zero disables tail capture). With a nil collector (the
// default) the kernel skips span work entirely. Call before pushing
// frames, from the engine's own goroutine.
func (e *Engine) SetPerf(c *perfobs.Collector, label string, window time.Duration) {
	e.perf = c
	e.perfLabel = label
	e.window = window
}

// SetController attaches the overload controller every window's ingest
// total (decode + extract + window_total) is fed to; nil detaches it. An
// attached controller keeps every window timed, and its live budget is the
// tail-capture threshold. Call from the engine's owning goroutine.
func (e *Engine) SetController(ctl *degrade.Controller) { e.ctl = ctl }

// Span returns the record of the window currently filling, for front ends
// to add their out-of-kernel stages into (decode/extract, queue-wait,
// worker-hop), or nil when no sink could consume it — telemetry off, span
// sampling off and no controller attached — so callers can skip their own
// clock reads. Staged values land on exactly the next processed window and
// are discarded with it if it goes untimed. Asking is safe from any
// goroutine once the engine's sinks are wired; writing into the record is
// for the engine's owning goroutine only.
func (e *Engine) Span() *perfobs.Span {
	if telemetry.Enabled() || e.ctl != nil || (e.perf != nil && e.perf.Armed()) {
		return &e.span
	}
	return nil
}

// finishWindow completes a timed window's record and feeds it to every
// sink: the vcd_stage_duration_seconds histograms, the overload
// controller, and — when sampled or slower than the stream's real-time
// budget — the span collector.
func (e *Engine) finishWindow(win *windowResult, sampled bool) {
	sp := &e.span
	for _, s := range e.shards {
		sp.NS[perfobs.StageProbe] = max(sp.NS[perfobs.StageProbe], s.d.probeNS)
		sp.NS[perfobs.StageCombine] = max(sp.NS[perfobs.StageCombine], s.d.combineNS)
	}
	sp.Stream = e.perfLabel
	sp.Window = int64(e.stats.Windows)
	sp.StartFrame = win.startFrame
	sp.EndFrame = win.endFrame
	sp.Related = win.relatedLen()
	sp.Workers = e.nshards
	sp.Plane = e.planeVersion

	if telemetry.Enabled() {
		observeStages(sp)
	}
	ingest := sp.Ingest()
	budget := e.window
	if e.ctl != nil {
		e.ctl.Observe(ingest)
		if b := e.ctl.Budget(); b > 0 {
			budget = b
		}
	}
	slow := budget > 0 && ingest > budget
	if slow {
		telSlowWindows.Inc()
	}
	if e.perf != nil && (sampled || slow) {
		e.perf.Record(sp, sampled)
	}
}
