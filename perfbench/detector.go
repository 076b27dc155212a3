package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"vdsms"
	"vdsms/internal/workload"
)

// detWorkload is a workload run on one vdsms.Detector over the VS2 stream.
type detWorkload struct {
	name string
	// dense is the number of queries cut from the monitored stream itself,
	// subscribed beside the shorts.
	dense int
	// rate is the open-loop offered load in key frames per second, about a
	// quarter of the closed-loop capacity measured on a quiet 2-CPU host:
	// the margin keeps the open loop out of overload when a shared host
	// runs the benchmark at half speed for a while.
	rate float64
}

// Shared shape of every workload.
const (
	winFrames = 10 // DefaultConfig: 5 s basic window at 2 key frames/s
	clipMin   = 16 // shortest cut query clip, in key frames
	clipMax   = 30 // longest cut query clip, in key frames
	// rounds is how many times an untraced run cycles through its phases
	// (set-up, closed loop, open loop, churn), each round with its share of
	// every phase. Contention on a shared host comes in bursts of 10–40 s;
	// cycling spreads every metric's samples over the whole run, so a burst
	// touches a minority of them and the medians hold.
	rounds         = 4
	setupShare     = 0.05 // share of --seconds spent setting up, at least one set-up a round
	closedShare    = 0.4  // share of --seconds spent in the closed loop
	openShare      = 0.45 // share of --seconds spent in the open loop
	churnShare     = 0.1  // share of --seconds spent churning (Detector only)
	minOpenWindows = 1000 // so window_p99_ms has ≥10 samples beyond it
	churnPairs     = 100  // fewest AddQuery+RemoveQuery pairs per run
	churnFirstID   = 1_000_000
)

// roundBudget is one round's share of the run for a phase.
func roundBudget(o options, share float64) time.Duration {
	return time.Duration(share * o.seconds / rounds * float64(time.Second))
}

// detRun is the state shared by the phases of a Detector workload.
type detRun struct {
	o     options
	wd    detWorkload
	in    *inputs
	clips []clip
	truth []workload.Insertion
	churn []clip
	rep   *report
	det   *vdsms.Detector
	ref   []vdsms.Match // the first pass's matches; every pass must equal it
	s     samples
	// badClosed and badOpen count the passes whose matches differ from ref.
	badClosed, badOpen int
}

func runDetector(o options, wd detWorkload) (*report, error) {
	in, err := genInputs(o.seed, false)
	if err != nil {
		return nil, err
	}
	r := newRNG(o.seed)
	x := &detRun{o: o, wd: wd, in: in, clips: in.shortClips(), truth: append([]workload.Insertion(nil), in.truth...)}
	if wd.dense > 0 {
		cut := cutClips(&in.stream, wd.dense, len(x.clips)+1, clipMin, clipMax, r)
		for _, c := range cut {
			x.truth = append(x.truth, workload.Insertion{QueryID: c.id, Begin: c.part.from, End: c.part.to})
		}
		x.clips = append(x.clips, cut...)
	}
	x.churn = cutClips(&in.stream, churnPool, churnFirstID, clipMin, clipMax, r)
	streams := []*encoded{&in.stream}
	for i := range in.shorts {
		streams = append(streams, &in.shorts[i])
	}
	x.rep = &report{workload: wd.name, seed: o.seed, trace: o.trace,
		digest: digest(streams, append(append([]clip(nil), x.clips...), x.churn...))}
	x.rep.note("%d key frames (%d bytes) monitored, %d queries, open loop at %.0f key frames/s",
		in.stream.frames(), len(in.stream.data), len(x.clips), wd.rate)
	x.s.gap = time.Duration(float64(winFrames) * float64(time.Second) / wd.rate)

	heap0 := liveHeap()
	if err := x.setup(); err != nil {
		return nil, err
	}
	x.s.heapMB = float64(liveHeap()-heap0) / (1 << 20)
	if o.trace {
		if err := x.traced(); err != nil {
			return nil, err
		}
		return x.rep, nil
	}
	for round := 0; round < rounds; round++ {
		if round > 0 {
			if err := x.setup(); err != nil {
				return nil, err
			}
		}
		if err := x.closedLoop(); err != nil {
			return nil, err
		}
		bad, err := x.runOpen(x.openPasses())
		if err != nil {
			return nil, err
		}
		x.badOpen += bad
		if err := x.churnPhase(); err != nil {
			return nil, err
		}
	}
	x.rep.expect("closed-loop-matches", x.badClosed == 0, "%d of %d passes differ from the first", x.badClosed, len(x.s.rate))
	x.rep.expect("open-loop-matches", x.badOpen == 0, "%d passes differ from the closed loop", x.badOpen)
	if err := x.s.report(x.rep); err != nil {
		return nil, err
	}
	// One traced pass: tracing must not change what is matched.
	vdsms.SetSpanSampling(1)
	ms, err := x.pass()
	vdsms.SetSpanSampling(0)
	if err != nil {
		return nil, err
	}
	x.rep.expect("traced-pass-matches", sameMatches(ms, x.ref), "%d matches", len(ms))
	addQuality(x.rep, [][]vdsms.Match{x.ref}, [][]workload.Insertion{x.truth}, nil)
	return x.rep, nil
}

// subscriptions returns the clips' ids and fresh readers over their bytes.
func subscriptions(clips []clip) ([]int, []io.Reader) {
	ids := make([]int, len(clips))
	rs := make([]io.Reader, len(clips))
	for i, c := range clips {
		ids[i], rs[i] = c.id, c.reader()
	}
	return ids, rs
}

// moreSetups reports whether a round that has timed n set-ups since t0
// times another: a traced run times one; an untraced round at least one,
// and more until its share of setupShare has passed, so a cheap set-up's
// median is taken over many.
func moreSetups(o options, n int, t0 time.Time) bool {
	if n == 0 {
		return true
	}
	return !o.trace && time.Since(t0) < roundBudget(o, setupShare)
}

// setup sets up a Detector — NewDetector + AddQueries from the MVC1 clips
// — as often as moreSetups asks, timing each, and keeps the last.
func (x *detRun) setup() error {
	for n, t0 := 0, time.Now(); moreSetups(x.o, n, t0); n++ {
		x.det = nil
		runtime.GC()
		ids, rs := subscriptions(x.clips)
		t := time.Now()
		d, err := vdsms.NewDetector(vdsms.DefaultConfig())
		if err != nil {
			return err
		}
		if err := d.AddQueries(ids, rs); err != nil {
			return fmt.Errorf("subscribing queries: %w", err)
		}
		x.s.setupS = append(x.s.setupS, time.Since(t).Seconds())
		x.det = d
	}
	return nil
}

// pass monitors the whole stream once on a fresh stream of the set-up
// detector (shared query plane, fresh matching state).
func (x *detRun) pass() ([]vdsms.Match, error) {
	s, err := x.det.NewStream()
	if err != nil {
		return nil, err
	}
	return s.Monitor(splice(span{src: &x.in.stream, from: 0, to: x.in.stream.frames()}))
}

// checkPass compares a pass's matches with the reference, which the first
// pass sets.
func (x *detRun) checkPass(ms []vdsms.Match, bad *int) {
	if x.ref == nil {
		x.ref = ms
		x.rep.expect("matches-found", len(ms) > 0, "%d matches in the reference pass", len(ms))
		return
	}
	if !sameMatches(ms, x.ref) {
		*bad++
	}
}

// closedLoop monitors whole passes back to back for the round's share of
// closedShare. Throughput and CPU cost are medians over every pass of the
// run, so a burst of host contention costs the passes it overlaps.
func (x *detRun) closedLoop() error {
	budget := roundBudget(x.o, closedShare)
	f := x.in.stream.frames()
	for n, t0 := 0, time.Now(); n == 0 || time.Since(t0) < budget; n++ {
		c0, w0 := cpuTime(), time.Now()
		ms, err := x.pass()
		if err != nil {
			return fmt.Errorf("closed-loop pass: %w", err)
		}
		x.s.addPass(f, time.Since(w0), cpuTime()-c0)
		x.checkPass(ms, &x.badClosed)
	}
	return nil
}

// openPasses returns how many whole passes a round's open loop runs: the
// round's share of openShare at the offered rate, and enough for
// minOpenWindows windows over the run.
func (x *detRun) openPasses() int {
	f := x.in.stream.frames()
	perPass := (f + winFrames - 1) / winFrames
	n := int(math.Round(openShare * x.o.seconds * x.wd.rate / float64(f) / rounds))
	need := (minOpenWindows + perPass - 1) / perPass
	return max(n, (need+rounds-1)/rounds, 1)
}

// runOpen feeds whole passes through paced readers on one continuous
// fixed-rate schedule, logging window latencies into the run's samples. It
// returns how many passes matched differently from the reference.
func (x *detRun) runOpen(passes int) (int, error) {
	f := x.in.stream.frames()
	sched := schedule{t0: time.Now().Add(time.Millisecond), period: time.Duration(float64(time.Second) / x.wd.rate)}
	bad := 0
	for p := 0; p < passes; p++ {
		s, err := x.det.NewStream()
		if err != nil {
			return 0, err
		}
		pr := newPacedReader(&x.in.stream, winFrames, sched, p*f, wallClock{}, &x.s.open)
		ms, err := s.Monitor(pr)
		pr.finish(time.Now(), err != nil)
		if err != nil {
			x.rep.note("open-loop pass %d failed: %v", p, err)
			continue
		}
		x.checkPass(ms, &bad)
	}
	return bad, nil
}

// churnPhase times subscription changes against the set-up plane, with no
// ingest running (a Detector is single-goroutine): AddQuery then
// RemoveQuery of each churn clip in turn, for the round's share of
// churnShare and at least its share of churnPairs.
func (x *detRun) churnPhase() error {
	budget := roundBudget(x.o, churnShare)
	for n, t0 := 0, time.Now(); n < (churnPairs+rounds-1)/rounds || time.Since(t0) < budget; n++ {
		c := x.churn[len(x.s.pairs)%len(x.churn)]
		rd := c.reader()
		t := time.Now()
		if err := x.det.AddQuery(c.id, rd); err != nil {
			return fmt.Errorf("subscribing query %d: %w", c.id, err)
		}
		add := time.Since(t)
		t = time.Now()
		if err := x.det.RemoveQuery(c.id); err != nil {
			return fmt.Errorf("unsubscribing query %d: %w", c.id, err)
		}
		x.s.pairs = append(x.s.pairs, pairMS(add, time.Since(t)))
	}
	return nil
}

// pairMS is the churn sample of one subscribe–unsubscribe pair: the mean
// of its two calls. An AddQuery also decodes its clip, so on a small plane
// it costs several times a RemoveQuery; pooling the calls would put the
// median in the gap between the two modes, where it jumps from run to run.
func pairMS(add, remove time.Duration) float64 { return ms(add+remove) / 2 }

func sameMatches(a, b []vdsms.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
