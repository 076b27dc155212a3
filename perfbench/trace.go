package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"vdsms"
	"vdsms/internal/core"
	"vdsms/internal/feature"
	"vdsms/internal/mpeg"
	"vdsms/internal/partition"
	"vdsms/internal/perfobs"
	"vdsms/internal/telemetry"
)

// The traced run reads the kernel stages from what the program already
// records: perfobs spans at 100% sampling, core.Stats, and the prefilter's
// telemetry counters. The front end and the bulk index build are timed by
// the benchmark around calls into each layer's public functions.

// pipeline is the front end a Detector runs per key frame, built from the
// same DefaultConfig parameters (u = 4, d = 5, grid pyramid).
type pipeline struct {
	ex *feature.Extractor
	pt partition.Partitioner
}

func newPipeline() (pipeline, error) {
	cfg := vdsms.DefaultConfig()
	ex, err := feature.NewExtractor(feature.Config{D: cfg.D})
	if err != nil {
		return pipeline{}, err
	}
	pt, err := partition.New(cfg.U, cfg.D, partition.GridPyramid)
	if err != nil {
		return pipeline{}, err
	}
	return pipeline{ex: ex, pt: pt}, nil
}

// cellIDs runs the front end over an MVC1 stream without timing it.
func (p pipeline) cellIDs(r io.Reader) ([]uint64, error) {
	dcs, _, err := mpeg.ReadAllDC(r)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(dcs))
	scratch := make([]float64, p.pt.D)
	for i, dcf := range dcs {
		out[i] = p.pt.CellInto(p.ex.Vector(dcf), scratch)
	}
	return out, nil
}

// frontEndPasses is how many timed front-end passes a traced run makes;
// each per-frame figure is the median over passes.
const frontEndPasses = 3

// frontEnd times partial decode, feature extraction and cell partitioning
// per key frame over the monitored stream.
func frontEnd(rep *report, e *encoded) error {
	p, err := newPipeline()
	if err != nil {
		return err
	}
	scratch := make([]float64, p.pt.D)
	var dec, ext, cell []float64
	frames := 0
	for i := 0; i < frontEndPasses; i++ {
		pd, err := mpeg.NewPartialDecoder(bytes.NewReader(e.data))
		if err != nil {
			return err
		}
		var tDec, tExt, tCell time.Duration
		frames = 0
		for {
			t0 := time.Now()
			dcf, err := pd.Next()
			t1 := time.Now()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			v := p.ex.Vector(dcf)
			t2 := time.Now()
			p.pt.CellInto(v, scratch)
			t3 := time.Now()
			tDec += t1.Sub(t0)
			tExt += t2.Sub(t1)
			tCell += t3.Sub(t2)
			frames++
		}
		perFrame := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(frames) }
		dec = append(dec, perFrame(tDec))
		ext = append(ext, perFrame(tExt))
		cell = append(cell, perFrame(tCell))
	}
	n := frames * frontEndPasses
	rep.addLayer("mpeg.decode_us_per_frame", median(dec), "us", n)
	rep.addLayer("mpeg.bytes_per_frame", float64(len(e.data)-mpeg.HeaderBytes)/float64(frames), "B", frames)
	rep.addLayer("feature.extract_us_per_frame", median(ext), "us", n)
	rep.addLayer("partition.cell_us_per_frame", median(cell), "us", n)
	return nil
}

// bulkBuild times core's bulk plane build (index and, when on, prefilter)
// from the clips' cell ids, which are computed untimed beforehand.
func bulkBuild(rep *report, clips []clip, prefilter bool) error {
	p, err := newPipeline()
	if err != nil {
		return err
	}
	ids := make([]int, len(clips))
	cells := make([][]uint64, len(clips))
	for i, c := range clips {
		ids[i] = c.id
		if cells[i], err = p.cellIDs(c.reader()); err != nil {
			return err
		}
	}
	d := vdsms.DefaultConfig()
	cfg := core.Config{K: d.K, Seed: d.Seed, Delta: d.Delta, Lambda: d.Lambda, WindowFrames: winFrames,
		Order: core.Sequential, Method: core.Bit, UseIndex: true, PreFilter: prefilter}
	t := time.Now()
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return err
	}
	if err := eng.AddQueries(ids, cells); err != nil {
		return err
	}
	rep.addLayer("core.bulk_build_s", time.Since(t).Seconds(), "s", len(clips))
	rep.addLayer("core.plane_mb", float64(eng.Queries().PlaneBytes())/(1<<20), "MB", len(clips))
	return nil
}

// runtimeMeter accumulates allocation and GC-pause deltas over the
// untraced units of a traced run.
type runtimeMeter struct {
	mallocs, bytes, pauseNS uint64
	frames                  int
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func (m *runtimeMeter) add(before, after runtime.MemStats, frames int) {
	m.mallocs += after.Mallocs - before.Mallocs
	m.bytes += after.TotalAlloc - before.TotalAlloc
	m.pauseNS += after.PauseTotalNs - before.PauseTotalNs
	m.frames += frames
}

func (m *runtimeMeter) report(rep *report) {
	f := float64(max(m.frames, 1))
	rep.addLayer("runtime.allocs_per_keyframe", float64(m.mallocs)/f, "count", m.frames)
	rep.addLayer("runtime.bytes_per_keyframe", float64(m.bytes)/f, "B", m.frames)
	rep.addLayer("runtime.gc_pause_ms", float64(m.pauseNS)/1e6/f*1000, "ms/1000kf", m.frames)
}

// prefilterCounters reads the prefilter's process-wide telemetry counters.
type prefilterCounters struct{ probes, rejects, fps int64 }

func readPrefilter() prefilterCounters {
	c := func(name string) int64 { return telemetry.Default.Counter(name, "").Value() }
	return prefilterCounters{
		probes:  c("vcd_prefilter_row_probes_total"),
		rejects: c("vcd_prefilter_row_rejects_total"),
		fps:     c("vcd_prefilter_false_positives_total"),
	}
}

func reportPrefilter(rep *report, before, after prefilterCounters) {
	probes := after.probes - before.probes
	rejects := after.rejects - before.rejects
	fps := after.fps - before.fps
	rep.addLayer("prefilter.reject_share", ratio(rejects, probes), "share", int(probes))
	rep.addLayer("prefilter.fp_share", ratio(fps, probes-rejects), "share", int(probes-rejects))
}

func ratio(a, b int64) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// kernelLayers reports the matching-kernel stages from the span aggregate
// of the traced units and the counters of the untraced ones.
func kernelLayers(rep *report, agg perfobs.Aggregate, st core.Stats) {
	n := int(agg.Windows)
	us := func(s perfobs.Stage) float64 { return agg.MeanNS(s) / 1e3 }
	rep.addLayer("minhash.sketch_us_per_window", us(perfobs.StageSketch), "us", n)
	rep.addLayer("qindex.probe_us_per_window", us(perfobs.StageProbe), "us", n)
	rep.addLayer("core.combine_us_per_window", us(perfobs.StageCombine), "us", n)
	rep.addLayer("core.merge_us_per_window", us(perfobs.StageMerge), "us", n)
	rep.addLayer("core.window_us_per_window", us(perfobs.StageWindowTotal), "us", n)
	rep.addLayer("qindex.related_per_window", float64(agg.RelatedSum)/float64(max(n, 1)), "count", n)
	w := int64(max(st.Windows, 1))
	var probed, pruned int64
	for _, sh := range st.Shards {
		probed += sh.Probed
		pruned += sh.Pruned
	}
	rep.addLayer("qindex.comparisons_per_window", float64(st.ProbeComparisons)/float64(w), "count", st.Windows)
	rep.addLayer("bitsig.pruned_share", ratio(pruned, probed), "share", int(probed))
	rep.addLayer("core.candidates_per_window", float64(st.CandidateSum)/float64(w), "count", st.Windows)
	rep.addLayer("core.signatures_per_window", float64(st.SignatureSum)/float64(w), "count", st.Windows)
}

// addStats sums engine counters across streams.
func addStats(a, b core.Stats) core.Stats {
	a.Frames += b.Frames
	a.Windows += b.Windows
	a.ProbeComparisons += b.ProbeComparisons
	a.SignatureSum += b.SignatureSum
	a.CandidateSum += b.CandidateSum
	a.Shards = append(a.Shards, b.Shards...)
	return a
}

// overhead reports the tracing overhead: the median traced unit time over
// the median untraced one, minus one.
func overhead(rep *report, untraced, traced []float64) {
	rep.addLayer("perfobs.trace_overhead_share", median(traced)/median(untraced)-1, "share", len(untraced)+len(traced))
}

// traced is a Detector workload's traced run.
func (x *detRun) traced() error {
	if err := frontEnd(x.rep, &x.in.stream); err != nil {
		return err
	}
	if err := bulkBuild(x.rep, x.clips, false); err != nil {
		return err
	}
	// Closed loop, alternating untraced and traced passes (U T T U U T …)
	// so drift on the host falls on both sides alike.
	budget := time.Duration(closedShare * x.o.seconds * float64(time.Second))
	perfobs.Default.Reset()
	var meter runtimeMeter
	var stats core.Stats
	var unt, trc []float64
	bad := 0
	f := x.in.stream.frames()
	for i, t0 := 0, time.Now(); i < 4 || time.Since(t0) < budget; i++ {
		on := i%4 == 1 || i%4 == 2
		if on {
			vdsms.SetSpanSampling(1)
		}
		m0, c0 := readMem(), cpuTime()
		s, err := x.det.NewStream()
		if err != nil {
			return err
		}
		start := time.Now()
		ms, err := s.Monitor(splice(span{src: &x.in.stream, from: 0, to: f}))
		wall := time.Since(start)
		c1, m1 := cpuTime(), readMem()
		vdsms.SetSpanSampling(0)
		if err != nil {
			return err
		}
		x.checkPass(ms, &bad)
		if on {
			trc = append(trc, wall.Seconds())
			continue
		}
		unt = append(unt, wall.Seconds())
		x.s.addPass(f, wall, c1-c0)
		meter.add(m0, m1, f)
		if stats.Windows == 0 {
			stats = s.Stats()
		}
	}
	x.rep.expect("traced-vs-untraced", bad == 0, "%d of %d passes differ from the first", bad, len(unt)+len(trc))
	kernelLayers(x.rep, perfobs.Default.Aggregate(), stats)
	meter.report(x.rep)
	overhead(x.rep, unt, trc)

	vdsms.SetSpanSampling(1)
	bad, err := x.runOpen(rounds * x.openPasses())
	vdsms.SetSpanSampling(0)
	if err != nil {
		return err
	}
	x.rep.expect("open-loop-matches", bad == 0, "%d passes differ from the closed loop", bad)
	if err := x.s.report(x.rep); err != nil {
		return err
	}
	return x.soloFleet()
}

// soloFleet runs the same stream through a one-stream Fleet with the
// prefilter on — the fleet ingest path and the prefilter tier, which a
// Detector under DefaultConfig does not use. Its matches must equal the
// Detector's.
func (x *detRun) soloFleet() error {
	cfg := vdsms.DefaultConfig()
	cfg.PreFilter = true
	f, err := vdsms.NewFleet(cfg, vdsms.FleetConfig{Workers: 1, QueueWindows: queueWindows})
	if err != nil {
		return err
	}
	defer f.Close()
	ids, rs := subscriptions(x.clips)
	if err := f.AddQueries(ids, rs); err != nil {
		return err
	}
	fs, err := f.Attach("solo")
	if err != nil {
		return err
	}
	vdsms.SetSpanSampling(1)
	defer vdsms.SetSpanSampling(0)
	perfobs.Default.Reset()
	pf0 := readPrefilter()
	var pushUS []float64
	depthHW := 0
	for from := 0; from < x.in.stream.frames(); from += winFrames {
		for {
			d := fs.Pending()
			depthHW = max(depthHW, d)
			if d+winFrames <= queueWindows*winFrames {
				break
			}
			time.Sleep(pollEvery)
		}
		t := time.Now()
		err := fs.PushSegment(splice(span{src: &x.in.stream, from: from, to: min(from+winFrames, x.in.stream.frames())}))
		pushUS = append(pushUS, float64(time.Since(t).Nanoseconds())/1e3)
		if err != nil {
			return fmt.Errorf("one-stream fleet push: %w", err)
		}
	}
	fs.Detach(true)
	got := fs.Matches()
	x.rep.expect("solo-fleet-matches", sameMatches(got, x.ref), "%d fleet matches, %d detector", len(got), len(x.ref))
	reportPrefilter(x.rep, pf0, readPrefilter())
	fleetQueue(x.rep, f, pushUS, depthHW, 0)
	return nil
}

// fleetQueue reports the fleet layer: push cost, queue wait, backlog,
// refusals and worker balance.
// The queue-wait p99 is taken exactly from the spans the collector retains
// (the most recent perfobs.DefaultRing windows), not from its bucketed
// histogram.
func fleetQueue(rep *report, f *vdsms.Fleet, pushUS []float64, depthHW, refused int) {
	rep.addLayer("fleet.push_us_per_segment", mean(pushUS), "us", len(pushUS))
	var wait []float64
	for _, sp := range perfobs.Default.Spans(0) {
		if ns, ok := sp.NS[perfobs.StageQueueWait.String()]; ok {
			wait = append(wait, float64(ns)/1e3)
		}
	}
	rep.addLayer("fleet.queue_wait_us_p99", quantile(wait, 0.99), "us", len(wait))
	rep.addLayer("fleet.queue_depth_hw", float64(depthHW), "frames", len(pushUS))
	rep.addLayer("fleet.refusals", float64(refused), "count", len(pushUS))
	ws := f.WorkerStats()
	var sum, top int64
	for _, w := range ws {
		sum += w.Frames
		top = max(top, w.Frames)
	}
	skew := 0.0
	if sum > 0 {
		skew = float64(top) / (float64(sum) / float64(len(ws)))
	}
	rep.addLayer("fleet.worker_skew", skew, "ratio", len(ws))
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}
