package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"vdsms"
	"vdsms/internal/core"
	"vdsms/internal/perfobs"
	"vdsms/internal/workload"
)

// Shape of the fleet-churn workload.
const (
	fleetStreams = 32
	fleetWorkers = 2
	decoyQueries = 1000
	// fleetRate is the open-loop offered load over all streams together,
	// in key frames per second: about an eighth of the closed-loop capacity
	// on a quiet 2-CPU host. The churn beside it takes about a third of a
	// CPU; at a quarter of capacity, a contention burst on a shared host
	// (CPU steal plus slower cycles) pushed ingest and churn together into
	// overload and the window latencies of that run up several-fold.
	fleetRate = 1250
	// churnRate is the subscription changes per second during the open
	// loop; they alternate between AddQuery and RemoveQuery of decoy clips.
	churnRate = 16
	churnPool = 50
	// queueWindows is the per-stream queue bound (FleetConfig default).
	queueWindows = 8
	// fleetUnits is how many closed-loop units a run pushes, spread evenly
	// over its rounds.
	fleetUnits = 8
	// pollEvery is how often the generator polls stream queues for
	// finished windows; it bounds the resolution of fleet window latency.
	pollEvery = 200 * time.Microsecond
)

// fleetRun is the state shared by the phases of the fleet-churn workload.
type fleetRun struct {
	o      options
	in     *inputs
	clips  []clip
	churn  []clip
	rep    *report
	cfg    vdsms.Config
	f      *vdsms.Fleet
	closed []*vdsms.FleetStream
	// offsets[s] is the stream frame stream s starts from: each stream is
	// a distinct rotation of the VS2 stream.
	offsets []int
	// next[s] is the next closed-loop segment of stream s; the closed loop
	// carries on through the rotation from round to round.
	next []int
	// open are the open-loop streams, attached once: each round's open
	// loop carries on through every stream's rotation where the previous
	// round stopped, and perRound is how many one-window segments a round
	// pushes to each (see segmentsPerRound).
	open     []*openStream
	perRound int
	s        samples
	// Fleet-layer figures of the open loop, reported by a traced run.
	pushUS           []float64
	depthHW, refused int
}

func runFleet(o options) (*report, error) {
	in, err := genInputs(o.seed, true)
	if err != nil {
		return nil, err
	}
	r := newRNG(o.seed)
	x := &fleetRun{o: o, in: in, cfg: vdsms.DefaultConfig(), next: make([]int, fleetStreams)}
	x.cfg.PreFilter = true
	x.clips = append(in.shortClips(), cutClips(in.decoy, decoyQueries, len(in.shorts)+1, clipMin, clipMax, r)...)
	x.churn = cutClips(in.decoy, churnPool, churnFirstID, clipMin, clipMax, r)
	for s := 0; s < fleetStreams; s++ {
		x.offsets = append(x.offsets, s*in.stream.frames()/fleetStreams)
	}
	streams := []*encoded{&in.stream, in.decoy}
	for i := range in.shorts {
		streams = append(streams, &in.shorts[i])
	}
	x.rep = &report{workload: "fleet-churn", seed: o.seed, trace: o.trace,
		digest: digest(streams, append(append([]clip(nil), x.clips...), x.churn...))}
	x.rep.note("%d streams over %d workers, %d queries (%d decoys, prefilter on), open loop at %d key frames/s, churn at %d calls/s",
		fleetStreams, fleetWorkers, len(x.clips), decoyQueries, fleetRate, churnRate)
	x.s.gap = time.Second * winFrames / fleetRate * fleetStreams

	defer func() {
		if x.f != nil {
			x.f.Close()
		}
	}()
	heap0 := liveHeap()
	if err := x.setup(); err != nil {
		return nil, err
	}
	x.s.heapMB = float64(liveHeap()-heap0) / (1 << 20)
	for s := 0; s < fleetStreams; s++ {
		fs, err := x.f.Attach(fmt.Sprintf("open-%02d", s))
		if err != nil {
			return nil, err
		}
		x.open = append(x.open, &openStream{fs: fs})
	}
	// A traced run is one round: its closed loop alternates untraced and
	// traced units, which rounds would split.
	n := rounds
	if o.trace {
		n = 1
		if err := frontEnd(x.rep, &in.stream); err != nil {
			return nil, err
		}
		if err := bulkBuild(x.rep, x.clips, true); err != nil {
			return nil, err
		}
	}
	x.perRound = segmentsPerRound(o, n)
	for round := 0; round < n; round++ {
		if round > 0 {
			if err := x.setup(); err != nil {
				return nil, err
			}
		}
		if err := x.closedLoop(fleetUnits / n); err != nil {
			return nil, err
		}
		if err := x.openLoop(round, n); err != nil {
			return nil, err
		}
	}
	if err := x.s.report(x.rep); err != nil {
		return nil, err
	}
	if o.trace {
		fleetQueue(x.rep, x.f, x.pushUS, x.depthHW, x.refused)
	}
	return x.rep, x.check(n * x.perRound * winFrames)
}

// setup sets up a Fleet — NewFleet + AddQueries + attaching the
// closed-loop streams — as often as moreSetups asks, timing each. The run
// keeps the first fleet it sets up and closes the later ones at once, so
// its streams carry their state through every round.
func (x *fleetRun) setup() error {
	for k, t0 := 0, time.Now(); moreSetups(x.o, k, t0); k++ {
		runtime.GC()
		ids, rs := subscriptions(x.clips)
		t := time.Now()
		f, err := vdsms.NewFleet(x.cfg, vdsms.FleetConfig{Workers: fleetWorkers, QueueWindows: queueWindows})
		if err != nil {
			return err
		}
		closed, err := subscribeAndAttach(f, ids, rs)
		if err != nil {
			f.Close()
			return err
		}
		x.s.setupS = append(x.s.setupS, time.Since(t).Seconds())
		if x.f == nil {
			x.f, x.closed = f, closed
		} else {
			f.Close()
		}
	}
	return nil
}

// subscribeAndAttach subscribes the queries and attaches the closed-loop
// streams.
func subscribeAndAttach(f *vdsms.Fleet, ids []int, rs []io.Reader) ([]*vdsms.FleetStream, error) {
	if err := f.AddQueries(ids, rs); err != nil {
		return nil, fmt.Errorf("subscribing queries: %w", err)
	}
	var closed []*vdsms.FleetStream
	for s := 0; s < fleetStreams; s++ {
		fs, err := f.Attach(fmt.Sprintf("closed-%02d", s))
		if err != nil {
			return nil, err
		}
		closed = append(closed, fs)
	}
	return closed, nil
}

// segment returns the spans of stream s's j-th one-window segment.
func (x *fleetRun) segment(s, j int) []span {
	return rotation(&x.in.stream, x.offsets[s]+j*winFrames, winFrames)
}

// closedLoop pushes one-window segments round robin to every stream whose
// queue has room, in units of closedShare/fleetUnits of the run that each
// end with the queues drained. Throughput and CPU cost are medians over the
// untraced units. A traced run alternates untraced and traced units
// (U T T U U T T U), so host drift falls on both sides of the
// tracing-overhead comparison.
func (x *fleetRun) closedLoop(units int) error {
	unit := time.Duration(closedShare * x.o.seconds / fleetUnits * float64(time.Second))
	if x.o.trace {
		perfobs.Default.Reset()
	}
	pf0 := readPrefilter()
	var meter runtimeMeter
	var unt, trc []float64
	for u := 0; u < units; u++ {
		on := x.o.trace && (u%4 == 1 || u%4 == 2)
		if on {
			vdsms.SetSpanSampling(1)
		}
		m0, c0 := readMem(), cpuTime()
		n, d, err := x.pushFor(unit)
		c1, m1 := cpuTime(), readMem()
		vdsms.SetSpanSampling(0)
		if err != nil {
			return err
		}
		if on {
			trc = append(trc, d.Seconds()/float64(n))
			continue
		}
		unt = append(unt, d.Seconds()/float64(n))
		x.s.addPass(n, d, c1-c0)
		meter.add(m0, m1, n)
	}
	if x.o.trace {
		var st core.Stats
		for _, fs := range x.closed {
			st = addStats(st, fs.Stats())
		}
		kernelLayers(x.rep, perfobs.Default.Aggregate(), st)
		meter.report(x.rep)
		overhead(x.rep, unt, trc)
		reportPrefilter(x.rep, pf0, readPrefilter())
	}
	return nil
}

// pushFor is one closed-loop unit: push for d, then wait until every
// queue is drained. It returns the frames pushed and the unit's duration.
func (x *fleetRun) pushFor(d time.Duration) (int, time.Duration, error) {
	frames := 0
	t0 := time.Now()
	for time.Since(t0) < d {
		pushed := false
		for s, fs := range x.closed {
			if fs.Pending()+winFrames > queueWindows*winFrames {
				continue
			}
			if err := fs.PushSegment(splice(x.segment(s, x.next[s])...)); err != nil {
				return 0, 0, fmt.Errorf("closed-loop push to stream %d: %w", s, err)
			}
			x.next[s]++
			frames += winFrames
			pushed = true
		}
		if !pushed {
			time.Sleep(pollEvery)
		}
	}
	x.f.Drain()
	return frames, time.Since(t0), nil
}

// openStream is one open-loop stream's bookkeeping.
type openStream struct {
	fs       *vdsms.FleetStream
	accepted []span      // the segments the fleet accepted, in order
	waiting  []time.Time // due times of accepted windows not yet done
}

// poll retires the stream's finished windows: its queued plus in-flight
// frame count, which it returns, says how many accepted windows are still
// open.
func (st *openStream) poll(now time.Time, log *windowLog) int {
	pending := st.fs.Pending()
	open := (pending + winFrames - 1) / winFrames
	for len(st.waiting) > open {
		log.done(st.waiting[0], now)
		st.waiting = st.waiting[1:]
	}
	return pending
}

// segmentsPerRound returns how many one-window segments each of n rounds
// pushes to every open-loop stream: the open loop lasts openShare of the
// run, long enough for churnPairs subscription changes at churnRate, and
// at least minOpenWindows windows.
func segmentsPerRound(o options, n int) int {
	secs := max(openShare*o.seconds, float64(2*churnPairs+churnPairs/10)/churnRate)
	per := int(math.Ceil(secs * fleetRate / winFrames / fleetStreams / float64(n)))
	return max(per, (minOpenWindows+fleetStreams*n-1)/(fleetStreams*n))
}

// openLoop is round r of n of the fixed-rate phase: one generator (this
// goroutine) pushes one-window segments to all open-loop streams in turn
// on a fixed schedule while a second goroutine churns subscriptions; a
// refused segment is a failed window, never retried.
func (x *fleetRun) openLoop(r, n int) error {
	first := r * x.perRound // the round's first segment of each stream
	total := x.perRound * fleetStreams
	sched := schedule{t0: time.Now().Add(time.Millisecond), period: time.Second * winFrames / fleetRate}
	log := &x.s.open
	pollAll := func(now time.Time) {
		depth := 0
		for _, st := range x.open {
			if len(st.waiting) > 0 {
				depth += st.poll(now, log)
			}
		}
		x.depthHW = max(x.depthHW, depth)
	}
	if x.o.trace {
		perfobs.Default.Reset()
		vdsms.SetSpanSampling(1)
		defer vdsms.SetSpanSampling(0)
	}
	ch := startChurn(x.f, x.churn, (churnPairs+n-1)/n)
	defer ch.stop() // for error paths; a second stop returns at once
	for i := 0; i < total; i++ {
		s, j := i%fleetStreams, first+i/fleetStreams
		due := sched.due(i)
		now := time.Now()
		for pollAll(now); now.Before(due); pollAll(now) {
			time.Sleep(min(pollEvery, due.Sub(now)))
			now = time.Now()
		}
		log.lateMS = append(log.lateMS, ms(now.Sub(due)))
		seg := x.segment(s, j)
		err := x.open[s].fs.PushSegment(splice(seg...))
		x.pushUS = append(x.pushUS, float64(time.Since(now).Nanoseconds())/1e3)
		switch {
		case err == nil:
			x.open[s].accepted = append(x.open[s].accepted, seg...)
			x.open[s].waiting = append(x.open[s].waiting, due)
		case errors.Is(err, vdsms.ErrBackpressure):
			x.refused++
			log.fail()
		default:
			x.rep.note("push to stream %d failed: %v", s, err)
			log.fail()
		}
	}
	deadline := time.Now().Add(time.Minute)
	for {
		now := time.Now()
		pollAll(now)
		busy := false
		for _, st := range x.open {
			busy = busy || len(st.waiting) > 0
		}
		if !busy {
			break
		}
		if now.After(deadline) {
			return errors.New("open-loop windows still queued a minute after the last push")
		}
		time.Sleep(pollEvery)
	}
	pairs, err := ch.stop()
	if err != nil {
		return err
	}
	x.s.pairs = append(x.s.pairs, pairs...)
	return nil
}

// check detaches the open-loop streams, which were fed fed frames each,
// scores their matches on non-churned queries against their rotated ground
// truth, and replays one seeded stream, over the very bytes the fleet
// accepted, through an isolated Detector: its matches must be equal.
func (x *fleetRun) check(fed int) error {
	var all [][]vdsms.Match
	var truth [][]workload.Insertion
	var countable []func(workload.Insertion) bool
	for s, st := range x.open {
		st.fs.Detach(true)
		all = append(all, stable(st.fs.Matches()))
		t, c := rotatedTruth(x.in.truth, x.offsets[s], x.in.stream.frames(), fed)
		truth = append(truth, t)
		countable = append(countable, c)
	}
	addQuality(x.rep, all, truth, countable)
	s := int(x.o.seed % fleetStreams)
	if s < 0 {
		s += fleetStreams
	}
	det, err := vdsms.NewDetector(x.cfg)
	if err != nil {
		return err
	}
	ids, rs := subscriptions(x.clips)
	if err := det.AddQueries(ids, rs); err != nil {
		return err
	}
	want, err := det.Monitor(splice(x.open[s].accepted...))
	if err != nil {
		return fmt.Errorf("isolated replay of stream %d: %w", s, err)
	}
	got := all[s]
	x.rep.expect("fleet-vs-isolated", sameMatches(got, want),
		"stream %d: %d fleet matches, %d isolated", s, len(got), len(want))
	return nil
}

// stable drops matches of churned queries, which come and go with the
// churn schedule.
func stable(ms []vdsms.Match) []vdsms.Match {
	var out []vdsms.Match
	for _, m := range ms {
		if m.QueryID < churnFirstID {
			out = append(out, m)
		}
	}
	return out
}

// rotatedTruth maps the stream's insertions into a rotation that starts
// at frame off and was fed fed frames. An insertion touching the fed range
// counts for precision; only one wholly inside it counts for recall.
func rotatedTruth(truth []workload.Insertion, off, total, fed int) ([]workload.Insertion, func(workload.Insertion) bool) {
	var out []workload.Insertion
	for _, ins := range truth {
		for k := -1; k*total < fed+total; k++ {
			b := ins.Begin - off + k*total
			e := b + ins.End - ins.Begin
			if e > 0 && b < fed {
				out = append(out, workload.Insertion{QueryID: ins.QueryID, Begin: b, End: e})
			}
		}
	}
	return out, func(ins workload.Insertion) bool { return ins.Begin >= 0 && ins.End <= fed }
}

// churner subscribes and unsubscribes decoy clips at churnRate calls per
// second on its own goroutine, alternating AddQuery and RemoveQuery, and
// records each pair's mean call latency (see pairMS). Once stopped it
// finishes, back to back, the pairs still missing to its target, so a run
// on a slow host reports a supported p90 instead of failing.
type churner struct {
	stopc chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
	pairs []float64
	err   error
}

func startChurn(f *vdsms.Fleet, pool []clip, target int) *churner {
	c := &churner{stopc: make(chan struct{})}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		sched := schedule{t0: time.Now(), period: time.Second / churnRate}
		var add time.Duration
		for i := 0; ; i++ {
			select {
			case <-c.stopc:
				if i%2 == 0 && len(c.pairs) >= target {
					return
				}
			case <-time.After(time.Until(sched.due(i))):
			}
			cl := pool[(i/2)%len(pool)]
			var rd io.Reader
			if i%2 == 0 {
				rd = cl.reader()
			}
			t := time.Now()
			var err error
			if rd != nil {
				err = f.AddQuery(cl.id, rd)
				add = time.Since(t)
			} else {
				err = f.RemoveQuery(cl.id)
				c.pairs = append(c.pairs, pairMS(add, time.Since(t)))
			}
			if err != nil {
				c.err = fmt.Errorf("churn call %d on query %d: %w", i, cl.id, err)
				return
			}
		}
	}()
	return c
}

// stop ends the churn and returns the pair latencies.
func (c *churner) stop() ([]float64, error) {
	c.once.Do(func() { close(c.stopc) })
	c.wg.Wait()
	return c.pairs, c.err
}
