// Telemetry instrumentation of the matching kernel: per-stage latency
// histograms, throughput counters, per-shard comparison counters and the
// slow-window counter.
//
// Metric handles are package-level (resolved once against
// telemetry.Default); every engine in the process folds into the same
// series, which is the deployment reality — a server runs one engine per
// concurrent stream and the operator wants the aggregate. Stage histograms
// are gated on telemetry.Enabled() so the kernel can be benchmarked with
// instrumentation cold; the counters are single atomic adds and stay on
// unconditionally.
package core

import (
	"strconv"
	"time"

	"vdsms/internal/perfobs"
	"vdsms/internal/telemetry"
)

var (
	telWindows = telemetry.Default.Counter("vcd_windows_processed_total",
		"Basic windows processed by the matching kernel, across all engines.")
	telFrames = telemetry.Default.Counter("vcd_frames_total",
		"Key frames consumed by the matching kernel, across all engines.")
	telMatches = telemetry.Default.Counter("vcd_matches_total",
		"Matches reported, across all engines (WAL replay included).")
	telProbeRelated = telemetry.Default.Counter("vcd_probe_related_total",
		"Related queries surfaced by window probes.")
	telProbePruned = telemetry.Default.Counter("vcd_probe_pruned_total",
		"Lemma 2 prunes, during probing and candidate extension.")

	telPrefilterProbes = telemetry.Default.Counter("vcd_prefilter_row_probes_total",
		"Per-row pre-filter membership tests (K per window when the tier is on).")
	telPrefilterRejects = telemetry.Default.Counter("vcd_prefilter_row_rejects_total",
		"Row probes the pre-filter rejected before any Hash-Query index work.")
	telPrefilterFP = telemetry.Default.Counter("vcd_prefilter_false_positives_total",
		"Rows the pre-filter admitted whose index search found nothing (wasted binary searches).")
	telPrefilterBytes = telemetry.Default.Gauge("vcd_prefilter_bytes",
		"Memory footprint of the pre-filter bit array, in bytes.")
	telPrefilterBytesPerQuery = telemetry.Default.Gauge("vcd_prefilter_bytes_per_query",
		"Pre-filter bytes divided by registered queries — the tier's marginal memory cost.")
	telPrefilterRebuilds = telemetry.Default.Counter("vcd_prefilter_rebuilds_total",
		"Pre-filter rebuilds triggered by churn staleness or saturation.")

	telSlowWindows = telemetry.Default.Counter("vcd_slow_windows_total",
		"Basic windows that exceeded the slow-window budget.")
)

// stageHist maps each record stage to its vcd_stage_duration_seconds
// series, one observation per timed window. probe and combine observe the
// slowest shard of the window (the critical path); sketch, merge and
// window_total are serial spans; decode and extract are the front end's
// per-window sums. queue_wait and worker_hop have no entry: the fleet
// observes them once per worker pass in its own histograms.
var stageHist = func() (h [perfobs.NumStages]*telemetry.Histogram) {
	for _, st := range []perfobs.Stage{
		perfobs.StageDecode, perfobs.StageExtract, perfobs.StageSketch, perfobs.StageProbe,
		perfobs.StageCombine, perfobs.StageMerge, perfobs.StageWindowTotal,
	} {
		h[st] = telemetry.Default.Histogram("vcd_stage_duration_seconds",
			"Wall-clock duration of pipeline stages, one observation per basic window (slowest shard for fanned-out stages).",
			telemetry.DurationBuckets, telemetry.L("stage", st.String()))
	}
	return h
}()

// observeStages publishes one record into the stage histograms. The front
// end's stages are observed only when recorded: engines fed cell ids
// directly (fleet streams, WAL replay, benchmarks) never time a decode.
func observeStages(sp *perfobs.Span) {
	for i, h := range stageHist {
		st := perfobs.Stage(i)
		unrecorded := sp.NS[st] == 0 && (st == perfobs.StageDecode || st == perfobs.StageExtract)
		if h != nil && !unrecorded {
			h.ObserveDuration(time.Duration(sp.NS[st]))
		}
	}
}

// shardComparedCounter registers the per-shard comparison counter for one
// query shard id. Engines with equal worker counts share series — the
// service-level aggregate across streams.
func shardComparedCounter(shard int) *telemetry.Counter {
	return telemetry.Default.Counter("vcd_shard_compared_total",
		"Similarity evaluations (signature tests plus sketch comparisons) per query shard, across all engines.",
		telemetry.L("shard", strconv.Itoa(shard)))
}
