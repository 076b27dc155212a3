package main

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"vdsms/internal/mpeg"
	"vdsms/internal/vframe"
)

func TestHighestTailNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n int
		p float64
	}{{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 90}, {100, 90}, {99, 50}, {20, 50}, {19, 0}} {
		got := highestTail(seq(c.n))
		if got.P != c.p || got.N != c.n {
			t.Errorf("n=%d: got p%g over %d samples, want p%g", c.n, got.P, got.N, c.p)
			continue
		}
		if got.P == 0 {
			continue
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > got.Value {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: p%g = %g has %d samples beyond it, want ≥ %d", c.n, got.P, got.Value, beyond, minBeyond)
		}
	}
	if q := quantile([]float64{1, 2, 3, 4}, 0.5); q != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", q)
	}
}

func TestSteadyQuantileIgnoresMinorityBurst(t *testing.T) {
	// 1000 time-ordered latencies of 1 ms with a 100 ms burst over a
	// contiguous run of them.
	withBurst := func(from, to int) []float64 {
		xs := make([]float64, 1000)
		for i := range xs {
			xs[i] = 1
			if i >= from && i < to {
				xs[i] = 100
			}
		}
		return xs
	}
	minority := withBurst(400, 700) // 3 of the 10 p90 chunks
	if q := quantile(minority, 0.9); q != 100 {
		t.Fatalf("pooled p90 = %g, want the burst's 100", q)
	}
	if q := steadyQuantile(minority, 0.9); q != 1 {
		t.Errorf("steady p90 with a burst over 30%% = %g, want 1", q)
	}
	if q := steadyQuantile(withBurst(200, 800), 0.9); q != 100 {
		t.Errorf("steady p90 with a burst over 60%% = %g, want 100", q)
	}
	// Fewer samples than two chunks hold: the plain quantile.
	short := minority[350:500]
	if q, want := steadyQuantile(short, 0.9), quantile(short, 0.9); q != want {
		t.Errorf("steady p90 of %d samples = %g, want the plain %g", len(short), q, want)
	}
}

func TestGridMedian(t *testing.T) {
	// Three of five values in the 25 s class, one below: the median sits
	// (2.5-1)/3 of the way through the class [24.75, 25.25).
	got := gridMedian([]float64{20, 25, 25, 25, 30}, 0.5)
	if want := 24.75 + 1.5/3*0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("gridMedian = %g, want %g", got, want)
	}
}

func TestInputsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesises two full workloads")
	}
	a, err := genInputs(7, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genInputs(7, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.stream.data, b.stream.data) || len(a.shorts) != len(b.shorts) {
		t.Fatal("same seed, different stream bytes")
	}
	for i := range a.shorts {
		if !bytes.Equal(a.shorts[i].data, b.shorts[i].data) {
			t.Fatalf("same seed, different bytes for short %d", i+1)
		}
	}
	ca := cutClips(&a.stream, 50, 1, clipMin, clipMax, newRNG(7))
	cb := cutClips(&b.stream, 50, 1, clipMin, clipMax, newRNG(7))
	if digest([]*encoded{&a.stream}, ca) != digest([]*encoded{&b.stream}, cb) {
		t.Fatal("same seed, different input digest")
	}
	c, err := genInputs(8, false)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.stream.data, c.stream.data) {
		t.Fatal("different seeds, same stream bytes")
	}
}

// smallStream encodes n intra-only frames of synthetic footage.
func smallStream(t *testing.T, n int) *encoded {
	t.Helper()
	e, err := encode(vframe.NewSynth(vframe.SynthConfig{W: frameW, H: frameH, FPS: keyFPS, NumFrames: n, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	return &e
}

func decodeAll(t *testing.T, r io.Reader) []*mpeg.DCFrame {
	t.Helper()
	dcs, _, err := mpeg.ReadAllDC(r)
	if err != nil {
		t.Fatal(err)
	}
	return dcs
}

func TestSpliceDecodesToCutFrames(t *testing.T) {
	e := smallStream(t, 25)
	whole := decodeAll(t, bytes.NewReader(e.data))
	if len(whole) != 25 {
		t.Fatalf("stream decodes to %d key frames, want 25", len(whole))
	}
	// A clip is the stream header plus a frame range.
	clip := decodeAll(t, splice(span{src: e, from: 7, to: 19}))
	if len(clip) != 12 {
		t.Fatalf("clip decodes to %d key frames, want 12", len(clip))
	}
	for i, dcf := range clip {
		if !equalDC(dcf.DC, whole[7+i].DC) {
			t.Fatalf("clip frame %d differs from stream frame %d", i, 7+i)
		}
	}
	// A segment of a rotation wraps past the end of the stream.
	parts := rotation(e, 20, 10)
	seg := decodeAll(t, splice(parts...))
	if len(seg) != 10 || len(parts) != 2 {
		t.Fatalf("wrapping segment: %d key frames from %d spans, want 10 from 2", len(seg), len(parts))
	}
	for i, dcf := range seg {
		if !equalDC(dcf.DC, whole[(20+i)%25].DC) {
			t.Fatalf("segment frame %d differs from stream frame %d", i, (20+i)%25)
		}
	}
}

func equalDC(a, b []float64) bool {
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

// fakeClock is simulated time: sleeping jumps straight to the deadline.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time { return c.t }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.t) {
		c.t = t
	}
}

func TestOpenLoopChargesStallToLaterWindows(t *testing.T) {
	e := smallStream(t, 6)
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{t: t0}
	log := &windowLog{}
	// Frame k is due at t0 + k ms; windows are two frames long.
	pr := newPacedReader(e, 2, schedule{t0: t0, period: time.Millisecond}, 0, clk, log)
	pd, err := mpeg.NewPartialDecoder(pr)
	if err != nil {
		t.Fatal(err)
	}
	// Processing a window takes 0.1 ms, except the first, which stalls for
	// 10 ms; the windows behind it are due meanwhile and wait.
	work := []time.Duration{10 * time.Millisecond, 100 * time.Microsecond, 100 * time.Microsecond}
	for k := 0; ; k++ {
		if _, err := pd.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if k%2 == 1 {
			clk.t = clk.t.Add(work[k/2])
		}
	}
	pr.finish(clk.t, false)
	// Window j's last frame is due at 2j+1 ms; window 0 ends at 11 ms,
	// window 1 at 11.1 ms, window 2 at 11.2 ms.
	want := []float64{10, 8.1, 6.2}
	if len(log.latMS) != len(want) {
		t.Fatalf("%d windows logged, want %d", len(log.latMS), len(want))
	}
	for j := range want {
		if math.Abs(log.latMS[j]-want[j]) > 1e-9 {
			t.Errorf("window %d latency %g ms, want %g ms", j, log.latMS[j], want[j])
		}
	}
	for j, l := range log.lateMS {
		if l != 0 {
			t.Errorf("window %d: generator %g ms late on a simulated clock", j, l)
		}
	}
}

func TestRefusedWindowMissesEveryLimit(t *testing.T) {
	log := &windowLog{}
	t0 := time.Unix(0, 0)
	for i := 0; i < 99; i++ {
		log.done(t0, t0.Add(time.Millisecond))
	}
	log.fail()
	if got := quantile(log.latMS, 0.995); !math.IsInf(got, 1) {
		t.Fatalf("p99.5 with one refusal in 100 = %g, want +Inf", got)
	}
	if log.failed != 1 {
		t.Fatalf("failed = %d, want 1", log.failed)
	}
}

func TestLateGeneratorInvalidatesRun(t *testing.T) {
	log := &windowLog{}
	t0 := time.Unix(0, 0)
	for i := 0; i < 1000; i++ {
		log.done(t0, t0.Add(time.Millisecond))
		log.lateMS = append(log.lateMS, 5) // released 5 ms late
	}
	rep := &report{}
	// A stream's windows are due 4 ms apart: 5 ms late bunches them.
	if err := reportWindows(rep, log, 4*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if rep.invalid == "" {
		t.Fatal("a generator 5 ms late on a 4 ms schedule left the run valid")
	}
	var out bytes.Buffer
	if err := rep.write(&out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Fatalf("an invalid run printed a result line:\n%s", out.String())
	}
}
