// Package vdsms is a Video Data Stream Management System for continuous
// content-based copy detection over streaming videos, reproducing Yan, Ooi
// and Zhou (ICDE 2008).
//
// A Detector monitors compressed video streams (the repository's MVC1
// format; see internal/mpeg) for copies of subscribed query videos. Frames
// are fingerprinted in the compressed domain (DC coefficients of key
// frames, grid–pyramid cell ids), sequences are compared by set similarity
// estimated with K-min-hash sketches, and the per-window work is done with
// 2K-bit vector signatures pruned by Lemma 2 and accelerated by a
// Hash-Query index over the query sketches. Detection is robust to
// brightness/colour edits, noise, resolution and frame-rate changes, and —
// the paper's headline property — temporal reordering of the copied
// material.
//
// Typical use:
//
//	det, _ := vdsms.NewDetector(vdsms.DefaultConfig())
//	det.AddQuery(1, queryClipReader)      // an encoded MVC1 clip
//	matches, _ := det.Monitor(streamReader)
//
// Synthesize, ApplyEdits and ComposeStream generate demo material so the
// examples run without any video assets.
package vdsms

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"vdsms/internal/core"
	"vdsms/internal/degrade"
	"vdsms/internal/feature"
	"vdsms/internal/mpeg"
	"vdsms/internal/partition"
	"vdsms/internal/perfobs"
	"vdsms/internal/snapshot"
	"vdsms/internal/trace"
)

// Config parameterises a Detector. DefaultConfig returns the paper's
// Table I defaults.
type Config struct {
	// K is the number of min-hash functions.
	K int
	// Seed fixes the hash family; detectors that must agree on sketches
	// need equal (K, Seed).
	Seed int64
	// Delta is the similarity threshold δ in (0, 1].
	Delta float64
	// Lambda bounds candidate length to λ × query length.
	Lambda float64
	// WindowSec is the basic window duration w in seconds of stream time.
	WindowSec float64
	// KeyFPS is the expected key-frame rate of monitored streams
	// (stream fps ÷ GOP). Streams whose rate differs by more than 20% are
	// rejected so window durations stay meaningful.
	KeyFPS float64
	// U is the grid partition granularity; D the feature dimensionality.
	U, D int
	// Sequential, when true, uses the Sequential candidate order
	// (higher accuracy); otherwise Geometric (lower cost).
	Sequential bool
	// UseSketchMethod selects raw sketch comparison instead of bit
	// signatures (mainly for experimentation; bit signatures are strictly
	// faster at equal accuracy).
	UseSketchMethod bool
	// NoIndex disables the Hash-Query index (linear scan per window).
	NoIndex bool
	// PreFilter enables the blocked-Bloom pre-filter tier in front of the
	// Hash-Query index: per-row candidate probes are rejected in O(1)
	// before any exact index work, which matters once the subscribed query
	// count reaches 10⁵–10⁶. Matches are byte-identical with the tier on
	// or off; only probe cost and memory change. Incompatible with
	// NoIndex. See DESIGN.md "Pre-filter tier".
	PreFilter bool
	// ArchiveSec, when positive, keeps the most recent ArchiveSec seconds
	// of the monitored stream's compressed frames in memory so that, on a
	// match, the matched segment can be saved as a standalone clip for
	// further analysis (delivered via OnMatchClip). This is the paper's
	// "only store the video sequences which are relevant to the queries".
	ArchiveSec float64
	// Workers sets the intra-stream parallelism of the per-window matching
	// kernel: 0 evaluates windows inline on the monitoring goroutine, N ≥ 1
	// partitions the queries across N workers per window. Matches and their
	// order are identical for every value; see core.Config.Workers.
	Workers int
	// CheckpointDir, when non-empty, enables crash recovery: the detector
	// keeps a checkpoint of its full matching state plus a write-ahead log
	// of the frames consumed since in this directory. Restart with Resume
	// to continue exactly where a crashed run stopped. One directory serves
	// one detector lineage; see DESIGN.md "Checkpoint/restore".
	CheckpointDir string
	// CheckpointEvery is the minimum wall-clock interval between periodic
	// checkpoints during Monitor (taken at basic-window boundaries). Zero
	// disables periodic checkpoints: state is then captured only on query
	// churn and explicit Checkpoint calls, and recovery replays the WAL
	// from the last such point.
	CheckpointEvery time.Duration
	// TraceEvents arms decision-provenance tracing: candidate-lifecycle
	// events (born, extended, pruned, dropped, expired, reported, near_miss)
	// are journaled in a bounded process-wide ring of this many events, and
	// every emitted match gets a provenance record (see Detector.MatchRecord).
	// Zero disables tracing — the matching kernel then does no extra work at
	// all. Capacities below the default still arm tracing at the default
	// ring size.
	TraceEvents int
	// AuditFraction, in (0, 1], arms the sampled exact-audit channel (and
	// implies tracing): about this fraction of report and prune decisions
	// are recomputed exactly from raw cell-id sets and scored against
	// Theorem 1's deviation bound, feeding the vcd_sketch_error_abs
	// histograms and vcd_sketch_error_bound_violations_total. Zero disables
	// auditing.
	AuditFraction float64
	// StreamName labels this detector's stream in the trace journal and the
	// /debug/events output. Empty auto-assigns "stream-N".
	StreamName string
	// RealTimeBudget arms the overload controller: the per-window ingest
	// latency (decode + extract + matching kernel) whose p99 must stay
	// under this bound. Sustained breaches raise a bounded shed level with
	// hysteresis; sustained headroom lowers it. Zero leaves the controller
	// unarmed (it can still be armed later via SetRealTimeBudget). The
	// natural budget for live input is WindowSec of wall time. See
	// DESIGN.md "Overload & graceful degradation".
	RealTimeBudget time.Duration
	// Shed lets the monitor loop act on the shed level: low-motion key
	// frames substitute their previous cell id instead of extracting, and
	// at higher levels low-delta frames skip entropy decode entirely.
	// Without Shed the armed controller runs observe-only — the level and
	// /readyz still report overload, but no work is dropped.
	Shed bool
	// Resync enables fault-tolerant ingest: corrupt frames are skipped or
	// substituted (with a byte-scan resynchronisation when frame sync is
	// lost), truncation ends the stream cleanly instead of erroring, and
	// transient read errors are absorbed with retry and backoff. Damage
	// counters surface in Overload() and the vcd_decode_resync_* metrics.
	Resync bool
}

// DefaultConfig returns the paper's default parameters: K=800, δ=0.7,
// u=4, d=5, w=5s, λ=2, Bit method, Sequential order, index enabled.
func DefaultConfig() Config {
	return Config{
		K: 800, Delta: 0.7, Lambda: 2, WindowSec: 5, KeyFPS: 2,
		U: 4, D: 5, Sequential: true,
	}
}

// Match is one detected copy, in stream time.
type Match struct {
	// QueryID identifies the matched query.
	QueryID int
	// Start and End delimit the matching candidate sequence.
	Start, End time.Duration
	// DetectedAt is the stream time at which the match was reported.
	DetectedAt time.Duration
	// Similarity is the estimated set similarity (≥ the configured δ).
	Similarity float64
}

// Stats reports detector-side operation counters; see core.Stats for field
// semantics.
type Stats = core.Stats

// Detector is the continuous copy-detection facade. It is not safe for
// concurrent use.
type Detector struct {
	cfg      Config
	pipeline pipeline
	engine   *core.Engine
	winKeyF  int
	// OnMatch, when set, receives matches as the stream is consumed.
	OnMatch func(Match)
	// OnMatchClip, when set together with Config.ArchiveSec, additionally
	// receives a standalone MVC1 clip of the matched stream segment
	// (starting at the nearest retained I-frame before the match). The
	// clip is only as long as the retention window allows.
	OnMatchClip func(Match, []byte)
	// Replayed holds the matches re-derived from the WAL tail by Resume.
	// They were (at least partially) delivered by the crashed run already —
	// recovery is at-least-once for the frames after the last checkpoint —
	// so they are reported here instead of through OnMatch.
	Replayed []Match

	// Decision-provenance state (see trace.go): the journal recorder when
	// tracing is armed.
	tracer *trace.Recorder

	// Adaptive-ingest state (see degrade.go): the overload controller is
	// shared across the lineage; ovl holds this stream's sampler, motion
	// scorer and damage counters.
	ctl *degrade.Controller
	ovl *ovlState

	// perfLabel is the stream label this detector's spans and outlier
	// observations carry (resolved by armPerf from the trace stream name).
	perfLabel string

	// Checkpoint state (armed when Config.CheckpointDir is set).
	wal      *snapshot.WAL
	lastCkpt time.Time

	// Per-Monitor-call archival state.
	curPD   *mpeg.PartialDecoder
	keyBase int   // engine key-frame ordinal at the segment start
	keyMap  []int // key ordinal − keyBase → stream frame index
}

type pipeline struct {
	ex *feature.Extractor
	pt partition.Partitioner
}

func (p pipeline) ids(dcs []*mpeg.DCFrame) []uint64 {
	out := make([]uint64, len(dcs))
	scratch := make([]float64, p.pt.D)
	for i, dcf := range dcs {
		out[i] = p.pt.CellInto(p.ex.Vector(dcf), scratch)
	}
	return out
}

// NewDetector validates cfg and builds a detector.
func NewDetector(cfg Config) (*Detector, error) {
	if cfg.WindowSec <= 0 {
		return nil, fmt.Errorf("vdsms: WindowSec %g must be positive", cfg.WindowSec)
	}
	if cfg.KeyFPS <= 0 {
		return nil, fmt.Errorf("vdsms: KeyFPS %g must be positive", cfg.KeyFPS)
	}
	ex, err := feature.NewExtractor(feature.Config{D: cfg.D})
	if err != nil {
		return nil, err
	}
	pt, err := partition.New(cfg.U, cfg.D, partition.GridPyramid)
	if err != nil {
		return nil, err
	}
	winKeyF := int(math.Round(cfg.WindowSec * cfg.KeyFPS))
	if winKeyF < 1 {
		winKeyF = 1
	}
	ecfg := core.Config{
		K: cfg.K, Seed: cfg.Seed, Delta: cfg.Delta, Lambda: cfg.Lambda,
		WindowFrames: winKeyF,
		Order:        core.Geometric,
		Method:       core.Bit,
		UseIndex:     !cfg.NoIndex,
		PreFilter:    cfg.PreFilter,
		Workers:      cfg.Workers,
	}
	if cfg.Sequential {
		ecfg.Order = core.Sequential
	}
	if cfg.UseSketchMethod {
		ecfg.Method = core.Sketch
	}
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		return nil, err
	}
	d := &Detector{cfg: cfg, pipeline: pipeline{ex: ex, pt: pt}, winKeyF: winKeyF}
	d.adopt(eng)
	return d, nil
}

// NewStream returns a fresh Detector monitoring an additional concurrent
// stream against this detector's query set. Queries, their sketches and
// the Hash-Query index are shared (one subscription covers every stream,
// as in the paper's multi-stream setting); per-stream candidate state is
// independent, so the returned detector may run in its own goroutine.
// AddQuery/RemoveQuery through any sharing detector affects all of them.
func (d *Detector) NewStream() (*Detector, error) { return d.NewStreamNamed("") }

// NewStreamNamed is NewStream with an explicit trace-journal stream name
// (shown by /debug/events and match records; empty auto-assigns one). The
// new detector shares this detector's overload controller.
func (d *Detector) NewStreamNamed(name string) (*Detector, error) {
	eng, err := core.NewEngineWith(d.engine.Config(), d.engine.Queries())
	if err != nil {
		return nil, err
	}
	ncfg := d.cfg
	// One checkpoint directory holds one detector lineage; additional
	// streams share the query set but must manage their own durability.
	ncfg.CheckpointDir = ""
	ncfg.StreamName = name
	nd := &Detector{cfg: ncfg, pipeline: d.pipeline, winKeyF: d.winKeyF, ctl: d.ctl}
	nd.adopt(eng)
	return nd, nil
}

// SaveQueries serialises the subscribed queries (ids, lengths, sketches)
// so a monitor can restart — or fan out to other processes — without
// re-decoding the query videos. Load with LoadDetector.
func (d *Detector) SaveQueries(w io.Writer) error {
	return d.engine.Queries().Save(w)
}

// LoadDetector builds a detector from cfg with its query set restored from
// a SaveQueries stream. cfg.K and cfg.Seed must match the values used when
// the queries were subscribed (the sketches embed the hash family).
func LoadDetector(cfg Config, r io.Reader) (*Detector, error) {
	d, err := NewDetector(cfg)
	if err != nil {
		return nil, err
	}
	qs, err := core.LoadQuerySet(r)
	if err != nil {
		return nil, err
	}
	if qs.K() != cfg.K {
		return nil, fmt.Errorf("vdsms: saved query set has K=%d, config has K=%d", qs.K(), cfg.K)
	}
	eng, err := core.NewEngineWith(d.engine.Config(), qs)
	if err != nil {
		return nil, err
	}
	d.adopt(eng)
	return d, nil
}

// adopt makes eng this detector's engine and wires it to the detector's
// sinks: match forwarding, the trace journal, the lineage's overload
// controller and the span collector. Every engine construction site
// (NewDetector, NewStreamNamed, LoadDetector, Resume) goes through it.
func (d *Detector) adopt(eng *core.Engine) {
	d.engine = eng
	eng.OnMatch = d.forward
	d.armTrace(eng)
	d.armOverload(eng)
	d.armPerf(eng)
}

// forward converts engine matches (key-frame indices) to stream time and
// archives the matched segment when requested.
func (d *Detector) forward(m core.Match) {
	conv := d.convert(m)
	if d.OnMatch != nil {
		d.OnMatch(conv)
	}
	if d.OnMatchClip == nil || d.curPD == nil {
		return
	}
	streamIdx := -1 // ClipFrom falls back to the oldest retained I-frame
	if off := m.StartFrame - d.keyBase; off >= 0 && off < len(d.keyMap) {
		streamIdx = d.keyMap[off]
	}
	clip, err := d.curPD.ClipFrom(streamIdx)
	if err != nil {
		return // retention too short: deliver nothing rather than garbage
	}
	d.OnMatchClip(conv, clip)
}

func (d *Detector) convert(m core.Match) Match {
	return convertMatch(m, d.cfg.KeyFPS)
}

// AddQuery subscribes a continuous query from an encoded MVC1 clip. The
// clip is partially decoded; only key-frame fingerprints are retained.
func (d *Detector) AddQuery(id int, clip io.Reader) error {
	dcs, _, err := mpeg.ReadAllDC(clip)
	if err != nil {
		return fmt.Errorf("vdsms: decoding query %d: %w", id, err)
	}
	if len(dcs) == 0 {
		return fmt.Errorf("vdsms: query %d has no key frames", id)
	}
	if err := d.engine.AddQuery(id, d.pipeline.ids(dcs)); err != nil {
		return err
	}
	// Subscription churn is not in the WAL (the log carries frames only),
	// so it is made durable by checkpointing immediately.
	return d.checkpointOnChurn()
}

// AddQueries subscribes a batch of continuous queries from encoded MVC1
// clips in one bulk operation: clips are decoded, then the Hash-Query
// index (and pre-filter, when enabled) is built once for the combined
// query set instead of once per insert — the only practical path at
// large query counts. Either every query lands or none does.
func (d *Detector) AddQueries(ids []int, clips []io.Reader) error {
	if len(ids) != len(clips) {
		return fmt.Errorf("vdsms: AddQueries: %d ids but %d clips", len(ids), len(clips))
	}
	cellIDs := make([][]uint64, len(clips))
	for i, clip := range clips {
		dcs, _, err := mpeg.ReadAllDC(clip)
		if err != nil {
			return fmt.Errorf("vdsms: decoding query %d: %w", ids[i], err)
		}
		if len(dcs) == 0 {
			return fmt.Errorf("vdsms: query %d has no key frames", ids[i])
		}
		cellIDs[i] = d.pipeline.ids(dcs)
	}
	if err := d.engine.AddQueries(ids, cellIDs); err != nil {
		return err
	}
	return d.checkpointOnChurn()
}

// RemoveQuery unsubscribes a query.
func (d *Detector) RemoveQuery(id int) error {
	if err := d.engine.RemoveQuery(id); err != nil {
		return err
	}
	return d.checkpointOnChurn()
}

// QueryIDs returns the subscribed query ids (unordered) — after Resume,
// the queries restored from the checkpoint.
func (d *Detector) QueryIDs() []int { return d.engine.Queries().IDs() }

// NumQueries returns the number of subscribed queries.
func (d *Detector) NumQueries() int { return d.engine.NumQueries() }

// Monitor consumes an encoded stream to EOF, returning the matches found in
// this segment. Detector state persists across calls, so consecutive
// Monitor calls behave as one continuous stream. Matches are also delivered
// incrementally via OnMatch.
func (d *Detector) Monitor(stream io.Reader) ([]Match, error) {
	var rr *degrade.RetryReader
	if d.cfg.Resync {
		// Transient (timeout/temporary) read errors are absorbed with
		// backoff before the decoder ever sees them.
		rr = degrade.NewRetryReader(stream)
		stream = rr
	}
	pd, err := mpeg.NewPartialDecoder(stream)
	if err != nil {
		return nil, err
	}
	if d.cfg.Resync {
		pd.SetResync(true)
		defer func() {
			d.foldResyncStats(pd.ResyncStats())
			if n := rr.Retries(); n > 0 {
				d.ovl.retries.Add(n)
				telReadRetries.Add(n)
			}
		}()
	}
	if d.shedArmed() {
		o, ctl := d.ovl, d.ctl
		// Declare the basic-window cadence so decode shedding runs under the
		// per-window budget (the phase accounts for a window left half-filled
		// by the previous Monitor call).
		o.sampler.SetWindow(d.winKeyF, d.engine.PendingFrames()%d.winKeyF)
		pd.SetShedCheck(func(payloadBytes int) bool {
			keep := o.sampler.KeepDecode(ctl.Level(), payloadBytes)
			if !keep {
				o.decodeShed.Add(1)
				telShedDecode.Inc()
				perfobs.DefaultOutliers.ObserveShed(d.perfLabel, 1)
			}
			return !keep
		})
	}
	hdr := pd.Header()
	keyRate := hdr.FPS() / float64(hdr.GOP)
	if keyRate < d.cfg.KeyFPS*0.8 || keyRate > d.cfg.KeyFPS*1.25 {
		return nil, fmt.Errorf("vdsms: stream key-frame rate %.2f/s incompatible with configured %.2f/s",
			keyRate, d.cfg.KeyFPS)
	}
	// Arm archival for this segment.
	if d.cfg.ArchiveSec > 0 && d.OnMatchClip != nil {
		pd.SetRetention(int(d.cfg.ArchiveSec*hdr.FPS()) + 1)
		d.curPD = pd
		d.keyBase = d.engine.Stats().Frames
		d.keyMap = d.keyMap[:0]
		defer func() { d.curPD = nil }()
	}
	maxKeys := int(d.cfg.ArchiveSec*d.cfg.KeyFPS) + 2

	before := len(d.engine.Matches)
	scratch := make([]float64, d.pipeline.pt.D)
	// Decoded cell ids are pushed in batches aligned to basic-window
	// boundaries: the engine processes each window at exactly the same
	// stream position as per-frame pushing would (so match latency and
	// archival state are unchanged) while the per-frame call overhead is
	// amortised — which matters once the window kernel fans out to workers.
	room := d.winKeyF - d.engine.PendingFrames()
	batch := make([]uint64, 0, d.winKeyF)
	// Front-end stages (decode, extract) are added into the engine's window
	// record frame by frame whenever some sink consumes it; the engine
	// folds them into the window those frames fill.
	sp := d.engine.Span()
	for {
		var tDec time.Time
		if sp != nil {
			tDec = time.Now()
		}
		dcf, err := pd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		var tExt time.Time
		if sp != nil {
			tExt = time.Now()
			sp.Add(perfobs.StageDecode, tExt.Sub(tDec))
		}
		batch = append(batch, d.cellID(dcf, scratch))
		if sp != nil {
			sp.Add(perfobs.StageExtract, time.Since(tExt))
		}
		if d.curPD != nil {
			d.keyMap = append(d.keyMap, dcf.Info.Index)
			if len(d.keyMap) > maxKeys {
				trim := len(d.keyMap) - maxKeys
				d.keyMap = d.keyMap[trim:]
				d.keyBase += trim
			}
		}
		if len(batch) == room {
			if err := d.pushLogged(batch); err != nil {
				return nil, err
			}
			batch = batch[:0]
			room = d.winKeyF
		}
	}
	if len(batch) > 0 {
		if err := d.pushLogged(batch); err != nil {
			return nil, err
		}
	}
	flushed := d.engine.PendingFrames() > 0
	d.engine.Flush()
	// A flushed partial window is a state change frame replay alone cannot
	// reproduce, so it is made durable immediately.
	if flushed && d.wal != nil {
		if err := d.Checkpoint(); err != nil {
			return nil, err
		}
	}
	out := make([]Match, 0, len(d.engine.Matches)-before)
	for _, m := range d.engine.Matches[before:] {
		out = append(out, d.convert(m))
	}
	return out, nil
}

// Stats returns the engine's operation counters.
func (d *Detector) Stats() Stats { return d.engine.Stats() }

// MonitorContext is Monitor with cancellation: it stops (returning
// ctx.Err() and the matches found so far) at the next frame boundary after
// the context is done. Use for live streams that have no natural EOF.
//
// When checkpointing is enabled, a cancelled monitor writes a final
// checkpoint before returning, so the state at the cancellation point
// survives a subsequent process exit without relying on the WAL tail
// alone.
func (d *Detector) MonitorContext(ctx context.Context, stream io.Reader) ([]Match, error) {
	matches, err := d.Monitor(&contextReader{ctx: ctx, r: stream})
	if cerr := ctx.Err(); cerr != nil && err != nil {
		if d.CheckpointingEnabled() {
			if ckErr := d.Checkpoint(); ckErr != nil {
				return matches, ckErr
			}
		}
		return matches, cerr
	}
	return matches, err
}

// contextReader fails reads once the context is done.
type contextReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *contextReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}
