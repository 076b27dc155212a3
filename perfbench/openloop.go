package main

import (
	"io"
	"math"
	"time"

	"vdsms/internal/mpeg"
)

// clock is the time source of the open-loop generators; tests substitute
// a simulated one.
type clock interface {
	Now() time.Time
	// SleepUntil returns at t or as soon after as it can.
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// SleepUntil sleeps rather than spins: a busy-waiting generator would
// take CPU time from the host the measured system shares it with. How
// late the wake-ups run is recorded as gen.late_p99_ms.
func (wallClock) SleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// schedule is a fixed-rate open-loop arrival schedule: event i is due at
// t0 + i·period, whether or not the system kept up.
type schedule struct {
	t0     time.Time
	period time.Duration
}

func (s schedule) due(i int) time.Time { return s.t0.Add(time.Duration(i) * s.period) }

// windowLog accounts open-loop window latency. Each window is timed from
// the due time of its last key frame to the moment it was done, so a stall
// is charged to every window queued behind it, not only to the window that
// stalled. A refused or failed window is recorded as +Inf: it misses any
// latency limit.
type windowLog struct {
	latMS []float64
	// lateMS records how late the generator released each key frame or
	// segment relative to the schedule (0 when it was on time).
	lateMS []float64
	failed int
}

func (l *windowLog) done(due, at time.Time) {
	l.latMS = append(l.latMS, ms(at.Sub(due)))
}

func (l *windowLog) fail() {
	l.latMS = append(l.latMS, math.Inf(1))
	l.failed++
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pacedReader serves one MVC1 stream to a Detector on an open-loop
// schedule: frame k of the pass is not handed out before its due time.
// The decoder reads each frame header and payload exactly, without read
// ahead, so the moment it asks for the first frame of window j+1 is the
// moment window j's processing ended; window completions are read off that
// request. Windows still open when the stream ends are closed by finish.
type pacedReader struct {
	data  []byte
	spans []mpeg.FrameSpan
	win   int // key frames per basic window
	sched schedule
	base  int // schedule index of this pass's frame 0
	clk   clock
	log   *windowLog

	pos  int // next byte to serve
	next int // next frame whose header has not been served
}

func newPacedReader(e *encoded, win int, sched schedule, base int, clk clock, log *windowLog) *pacedReader {
	return &pacedReader{data: e.data, spans: e.spans, win: win, sched: sched, base: base, clk: clk, log: log}
}

// lastFrame returns the pass-local index of window j's last key frame.
func (r *pacedReader) lastFrame(j int) int { return min((j+1)*r.win, len(r.spans)) - 1 }

func (r *pacedReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	end := len(r.data)
	if r.next < len(r.spans) {
		if r.pos == r.spans[r.next].Off {
			r.release(r.next)
			r.next++
		}
		if r.next < len(r.spans) {
			end = r.spans[r.next].Off
		}
	}
	n := copy(p, r.data[r.pos:end])
	r.pos += n
	return n, nil
}

// release blocks until frame k is due. Frame k's request also marks the
// completion of the window before it when k opens a new window.
func (r *pacedReader) release(k int) {
	now := r.clk.Now()
	if k > 0 && k%r.win == 0 {
		j := k/r.win - 1
		r.log.done(r.sched.due(r.base+r.lastFrame(j)), now)
	}
	due := r.sched.due(r.base + k)
	late := 0.0 // a frame the system asks for only after its due time was on time
	if now.Before(due) {
		r.clk.SleepUntil(due)
		late = ms(r.clk.Now().Sub(due))
	}
	r.log.lateMS = append(r.log.lateMS, late)
}

// finish closes the pass: the windows whose completion no later frame
// request observed end now, or fail when the pass errored.
func (r *pacedReader) finish(at time.Time, failed bool) {
	nwin := (len(r.spans) + r.win - 1) / r.win
	first := 0
	if r.next > 0 {
		first = (r.next - 1) / r.win // the window holding the last served frame
	}
	for j := first; j < nwin; j++ {
		if failed {
			r.log.fail()
		} else {
			r.log.done(r.sched.due(r.base+r.lastFrame(j)), at)
		}
	}
}
