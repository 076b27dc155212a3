// Facade-level performance attribution: wiring detectors into the
// process-wide span collector and the knobs CLIs expose for it. See
// internal/perfobs for the span model and DESIGN.md §14.
package vdsms

import (
	"encoding/json"
	"io"
	"time"

	"vdsms/internal/core"
	"vdsms/internal/perfobs"
)

// SetSpanSampling sets the process-wide span sampling fraction: 0 disables
// span capture (the default — the window hot path then pays one atomic
// load), 1 samples every basic window, f in (0,1) samples every
// round(1/f)th window deterministically. Applies to every detector, stream
// and fleet engine in the process.
func SetSpanSampling(fraction float64) {
	perfobs.Default.SetSampleFraction(fraction)
}

// SetAllocSampling sets how many sampled spans pass between
// allocation-attribution readings (per-stage allocated-object deltas and a
// GC snapshot). 0 disables alloc attribution; keep ≥ 8 in production —
// each reading costs a few runtime metric reads.
func SetAllocSampling(every int) {
	perfobs.Default.SetAllocEvery(int64(every))
}

// SetSpanLog streams every sampled span to w as one JSON line each (the
// -span-log flag of vcdmon/vcdserve). Pass nil to stop. The writer is
// called synchronously from the window path — wrap slow sinks in a
// buffered writer.
func SetSpanLog(w io.Writer) {
	if w == nil {
		perfobs.Default.SetOnSpan(nil)
		return
	}
	perfobs.Default.SetOnSpan(func(r perfobs.SpanRecord) {
		b, err := json.Marshal(r)
		if err != nil {
			return
		}
		w.Write(append(b, '\n'))
	})
}

// StartProfiler begins continuous CPU+heap profile capture into dir (the
// -profile-dir/-profile-every flags): every period one profile pair is
// written into a bounded ring of keep files per kind. Returns the profiler
// for Stop.
func StartProfiler(dir string, every time.Duration, keep int) (*perfobs.Profiler, error) {
	return perfobs.StartProfiler(dir, every, keep)
}

// armPerf points eng at the process span collector under this detector's
// stream label, with one basic window of stream time as the real-time
// budget above which a window is tail-captured (a live controller's budget
// overrides it). Called from adopt, after armTrace (which resolves the
// stream name).
func (d *Detector) armPerf(eng *core.Engine) {
	label := d.StreamName()
	if label == "" {
		label = d.cfg.StreamName
	}
	d.perfLabel = label
	eng.SetPerf(perfobs.Default, label, d.cfg.window())
}

// window is the stream duration of one basic window — the real-time
// budget a window's processing must stay within to keep up with live
// input.
func (cfg Config) window() time.Duration {
	return time.Duration(cfg.WindowSec * float64(time.Second))
}
