// Facade-level overload control and fault tolerance: the wiring between
// the monitor loop and internal/degrade. The controller watches full
// ingest latency (front-end decode+extract plus the matching kernel) per
// basic window against Config.RealTimeBudget; when the p99 breaches, the
// shed level rises and the monitor loop starts substituting cheap work for
// expensive work — previous cell ids for low-motion extractions, skipped
// entropy decodes for low-delta frames — recovering when the load clears.
// See DESIGN.md "Overload & graceful degradation".
package vdsms

import (
	"sync/atomic"
	"time"

	"vdsms/internal/core"
	"vdsms/internal/degrade"
	"vdsms/internal/feature"
	"vdsms/internal/mpeg"
	"vdsms/internal/perfobs"
	"vdsms/internal/telemetry"
)

var (
	telShedExtract = telemetry.Default.Counter("vcd_shed_frames_total",
		"Key frames shed under overload, by pipeline stage.",
		telemetry.L("stage", "extract"))
	telShedDecode = telemetry.Default.Counter("vcd_shed_frames_total",
		"Key frames shed under overload, by pipeline stage.",
		telemetry.L("stage", "decode"))
	telResyncs = telemetry.Default.Counter("vcd_decode_resync_total",
		"Byte-scan resynchronisations after losing frame sync in a monitored stream.")
	telResyncCorrupt = telemetry.Default.Counter("vcd_decode_resync_corrupt_frames_total",
		"Frame slots skipped or substituted due to bitstream corruption.")
	telResyncSkipped = telemetry.Default.Counter("vcd_decode_resync_skipped_bytes_total",
		"Bytes discarded while scanning damaged streams for frame sync.")
	telResyncTruncated = telemetry.Default.Counter("vcd_decode_resync_truncated_total",
		"Monitored streams that ended early by truncation.")
	telReadRetries = telemetry.Default.Counter("vcd_read_retries_total",
		"Transient stream read errors absorbed by retry with backoff.")
)

// OverloadStats is a point-in-time view of the adaptive-ingest machinery:
// the overload control loop (shared across the detector's lineage) plus
// this detector's own shed and fault-recovery counters.
type OverloadStats struct {
	// Armed reports whether the overload controller exists at all
	// (Config.RealTimeBudget set, or SetRealTimeBudget called).
	Armed bool
	// Level is the current shed level, 0..degrade.MaxLevel.
	Level int
	// MaxLevel is the highest level the controller will request.
	MaxLevel int
	// Budget is the per-window real-time budget (zero = loop disabled).
	Budget time.Duration
	// RingP99 is the p99 of the current evidence ring; RunP99/RunMean
	// describe every window since the last level change (steady state).
	RingP99, RunP99, RunMean time.Duration
	// RunWindows counts windows since the last level change; Observed all
	// windows fed to the loop; ShedWindows those observed at level > 0;
	// Transitions the level changes.
	RunWindows, Observed, ShedWindows, Transitions int64
	// ExtractShed and DecodeShed count this detector's shed key frames.
	ExtractShed, DecodeShed int64
	// Resyncs, CorruptFrames, SkippedBytes and Truncated mirror
	// mpeg.ResyncStats, accumulated over this detector's monitored streams.
	Resyncs, CorruptFrames, SkippedBytes, Truncated int64
	// ReadRetries counts transient read errors absorbed with backoff.
	ReadRetries int64
}

// ovlState is the per-detector half of the overload machinery. The
// controller itself is shared by the lineage; sampler, motion scorer and
// damage counters are per stream.
type ovlState struct {
	sampler *degrade.Sampler
	motion  feature.MotionScorer

	lastCell uint64 // most recent emitted cell id, for substitution

	extractShed atomic.Int64
	decodeShed  atomic.Int64
	rstats      struct{ resyncs, corrupt, skipped, truncated atomic.Int64 }
	retries     atomic.Int64
}

// armOverload attaches the lineage's overload controller to eng, which
// then feeds it every window's ingest total (decode + extract + kernel)
// from its window record. Called from every engine construction site via
// adopt, so all engines of a lineage feed one loop. A detector without a
// real-time budget stays unwired.
func (d *Detector) armOverload(eng *core.Engine) {
	if d.ovl == nil {
		d.ovl = &ovlState{sampler: degrade.NewSampler()}
	}
	if d.ctl == nil {
		if d.cfg.RealTimeBudget <= 0 {
			return
		}
		d.ctl = degrade.NewController(degrade.ControllerConfig{Budget: d.cfg.RealTimeBudget})
	}
	eng.SetController(d.ctl)
}

// SetRealTimeBudget retunes (or arms) the overload controller at runtime.
// The new budget takes effect at the next observed window of every stream
// sharing this detector's lineage. On a detector constructed without a
// budget, monitoring started before this call stays unobserved — arm via
// Config.RealTimeBudget when the budget is known up front. Non-positive
// disables the loop and resets the shed level.
func (d *Detector) SetRealTimeBudget(budget time.Duration) {
	if d.ctl == nil {
		if budget <= 0 {
			return
		}
		d.cfg.RealTimeBudget = budget
		d.armOverload(d.engine)
		return
	}
	d.ctl.SetBudget(budget)
}

// RealTimeBudget returns the live per-window budget (zero = disabled).
func (d *Detector) RealTimeBudget() time.Duration {
	if d.ctl == nil {
		return 0
	}
	return d.ctl.Budget()
}

// ShedLevel returns the lineage's current shed level (0 when the overload
// controller is not armed).
func (d *Detector) ShedLevel() int {
	if d.ctl == nil {
		return 0
	}
	return d.ctl.Level()
}

// Overload returns the adaptive-ingest statistics: control-loop state
// shared across the lineage plus this detector's shed and fault-recovery
// counters.
func (d *Detector) Overload() OverloadStats {
	s := OverloadStats{MaxLevel: degrade.MaxLevel}
	if d.ovl != nil {
		s.ExtractShed = d.ovl.extractShed.Load()
		s.DecodeShed = d.ovl.decodeShed.Load()
		s.Resyncs = d.ovl.rstats.resyncs.Load()
		s.CorruptFrames = d.ovl.rstats.corrupt.Load()
		s.SkippedBytes = d.ovl.rstats.skipped.Load()
		s.Truncated = d.ovl.rstats.truncated.Load()
		s.ReadRetries = d.ovl.retries.Load()
	}
	if d.ctl == nil {
		return s
	}
	cs := d.ctl.Snapshot()
	s.Armed = true
	s.Level = cs.Level
	s.Budget = cs.Budget
	s.RingP99, s.RunP99, s.RunMean = cs.RingP99, cs.RunP99, cs.RunMean
	s.RunWindows, s.Observed = cs.RunWindows, cs.Observed
	s.ShedWindows, s.Transitions = cs.ShedWindows, cs.Transitions
	return s
}

// shedArmed reports whether the monitor loop should make shed decisions.
func (d *Detector) shedArmed() bool { return d.ctl != nil && d.cfg.Shed }

// cellID turns one decoded frame into its grid-pyramid cell id, applying
// the shed policy: placeholder frames (nil DC grid — shed before decode,
// or lost to corruption) and extraction-shed frames substitute the most
// recent real cell id, preserving the window cadence the matcher expects.
func (d *Detector) cellID(dcf *mpeg.DCFrame, scratch []float64) uint64 {
	o := d.ovl
	if dcf.DC == nil {
		// The decode was shed (counted at the shed check) or the frame was
		// corrupt; either way there is nothing to extract.
		return o.lastCell
	}
	if d.shedArmed() {
		// Score every decoded frame — the tracker needs continuous history —
		// then let the sampler decide at the current level.
		score, ok := o.motion.Score(dcf)
		if !d.ovl.sampler.KeepExtract(d.ctl.Level(), score, ok) {
			o.extractShed.Add(1)
			telShedExtract.Inc()
			perfobs.DefaultOutliers.ObserveShed(d.perfLabel, 1)
			return o.lastCell
		}
	}
	id := d.pipeline.pt.CellInto(d.pipeline.ex.Vector(dcf), scratch)
	o.lastCell = id
	return id
}

// foldResyncStats folds one Monitor call's decoder damage counters into
// the detector's cumulative totals and the process metrics (the decoder is
// per-call, the counters outlive it).
func (d *Detector) foldResyncStats(rs mpeg.ResyncStats) {
	if rs.Resyncs > 0 {
		d.ovl.rstats.resyncs.Add(rs.Resyncs)
		telResyncs.Add(rs.Resyncs)
	}
	if rs.CorruptFrames > 0 {
		d.ovl.rstats.corrupt.Add(rs.CorruptFrames)
		telResyncCorrupt.Add(rs.CorruptFrames)
	}
	if rs.SkippedBytes > 0 {
		d.ovl.rstats.skipped.Add(rs.SkippedBytes)
		telResyncSkipped.Add(rs.SkippedBytes)
	}
	if rs.Truncated > 0 {
		d.ovl.rstats.truncated.Add(rs.Truncated)
		telResyncTruncated.Add(rs.Truncated)
	}
}
