package perfobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func TestStageString(t *testing.T) {
	want := map[Stage]string{
		StageDecode:      "decode",
		StageExtract:     "extract",
		StageSketch:      "sketch",
		StageProbe:       "probe",
		StageCombine:     "combine",
		StageMerge:       "merge",
		StageQueueWait:   "queue_wait",
		StageWorkerHop:   "worker_hop",
		StageWindowTotal: "window_total",
	}
	for st, name := range want {
		if got := st.String(); got != name {
			t.Errorf("Stage(%d).String() = %q, want %q", st, got, name)
		}
	}
	if got := Stage(200).String(); got != "unknown" {
		t.Errorf("out-of-range stage = %q, want unknown", got)
	}
}

// window runs one window's record lifecycle against c the way an engine
// does — draw, fill, record when sampled — and reports whether it was
// sampled.
func window(c *Collector, stream string, fill func(*Span)) bool {
	var sp Span
	if !c.Draw(&sp) {
		return false
	}
	sp.Stream = stream
	fill(&sp)
	c.Record(&sp, true)
	return true
}

func TestSamplingCadence(t *testing.T) {
	c := NewCollector(16)
	c.SetSampleEvery(3)
	var sampled int
	for i := 0; i < 30; i++ {
		if window(c, "s", func(sp *Span) { sp.Set(StageWindowTotal, 100) }) {
			sampled++
		}
	}
	if sampled != 10 {
		t.Fatalf("every=3 over 30 windows sampled %d, want 10", sampled)
	}
	if got := c.Sampled(); got != 10 {
		t.Fatalf("Sampled() = %d, want 10", got)
	}
}

func TestSampleFractionMapping(t *testing.T) {
	c := NewCollector(4)
	cases := []struct {
		f    float64
		want int64
	}{
		{0, 0}, {-1, 0}, {1, 1}, {2, 1}, {0.5, 2}, {0.01, 100}, {0.001, 1000},
	}
	for _, tc := range cases {
		c.SetSampleFraction(tc.f)
		if got := c.SampleEvery(); got != tc.want {
			t.Errorf("SetSampleFraction(%v) → every=%d, want %d", tc.f, got, tc.want)
		}
	}
}

func TestDisabledBeginIsNilAndAllocFree(t *testing.T) {
	c := NewCollector(16)
	c.SetSampleEvery(0)
	var sp Span
	if c.Draw(&sp) {
		t.Fatal("Draw with sampling off sampled a window")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if c.Draw(&sp) {
			c.Record(&sp, true)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled Draw allocates %v objects/op, want 0", allocs)
	}
}

func TestSampledSteadyStateAllocFree(t *testing.T) {
	c := NewCollector(16)
	c.SetSampleEvery(1)
	// The record is caller-owned and copied into the ring, so sampling a
	// window allocates nothing.
	var sp Span
	allocs := testing.AllocsPerRun(1000, func() {
		if c.Draw(&sp) {
			sp.Set(StageWindowTotal, 1)
			c.Record(&sp, true)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state sampled window allocates %v objects/op, want 0", allocs)
	}
}

func TestAggregateFold(t *testing.T) {
	c := NewCollector(16)
	c.SetSampleEvery(1)
	for i := 1; i <= 4; i++ {
		window(c, "s", func(sp *Span) {
			sp.Set(StageSketch, time.Duration(i)*time.Millisecond)
			sp.Set(StageWindowTotal, time.Duration(2*i)*time.Millisecond)
			sp.Related = i
		})
	}
	a := c.Aggregate()
	if a.Windows != 4 || a.RelatedSum != 10 {
		t.Fatalf("windows=%d related=%d, want 4/10", a.Windows, a.RelatedSum)
	}
	sk := a.Stages[StageSketch]
	if sk.Count != 4 || sk.SumNS != 10e6 || sk.MaxNS != 4e6 {
		t.Fatalf("sketch agg = %+v", sk)
	}
	// Unobserved stage stays empty; window_total always counts.
	if a.Stages[StageQueueWait].Count != 0 {
		t.Fatalf("queue_wait observed without data")
	}
	if a.Stages[StageWindowTotal].Count != 4 {
		t.Fatalf("window_total count = %d", a.Stages[StageWindowTotal].Count)
	}
	if q := a.Quantile(StageSketch, 0.5); q <= 0 || q > 0.0025 {
		t.Fatalf("sketch p50 = %v, want in (0, 2.5ms]", q)
	}
	if m := a.MeanNS(StageSketch); m != 2.5e6 {
		t.Fatalf("sketch mean = %v ns, want 2.5e6", m)
	}
	counts := a.Counts()
	if counts.Windows != 4 || counts.StageCounts[StageSketch] != 4 {
		t.Fatalf("Counts projection = %+v", counts)
	}
}

func TestSpanRingOrderAndLimit(t *testing.T) {
	c := NewCollector(4)
	c.SetSampleEvery(1)
	for i := 1; i <= 7; i++ {
		window(c, "s", func(sp *Span) {
			sp.Window = int64(i)
			sp.Set(StageWindowTotal, time.Duration(i))
		})
	}
	got := c.Spans(0)
	if len(got) != 4 {
		t.Fatalf("ring of 4 holds %d", len(got))
	}
	for i, r := range got {
		if want := int64(4 + i); r.Window != want {
			t.Fatalf("span[%d].Window = %d, want %d (oldest-first)", i, r.Window, want)
		}
	}
	if got := c.Spans(2); len(got) != 2 || got[0].Window != 6 {
		t.Fatalf("Spans(2) = %+v, want windows 6,7", got)
	}
}

func TestWriteSpansJSONLines(t *testing.T) {
	c := NewCollector(8)
	c.SetSampleEvery(1)
	window(c, "cam-1", func(sp *Span) {
		sp.Window = 42
		sp.StartFrame = 10
		sp.EndFrame = 19
		sp.Related = 3
		sp.Workers = 2
		sp.Plane = 7
		sp.Set(StageSketch, time.Millisecond)
		sp.Set(StageWindowTotal, 2*time.Millisecond)
	})

	var buf bytes.Buffer
	if err := c.WriteSpans(&buf, 0, 0); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var n int
	for sc.Scan() {
		n++
		var r SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d not JSON: %v", n, err)
		}
		if r.Stream != "cam-1" || r.Window != 42 || r.Plane != 7 {
			t.Fatalf("record = %+v", r)
		}
		if r.NS["sketch"] != 1e6 || r.NS["window_total"] != 2e6 {
			t.Fatalf("ns map = %+v", r.NS)
		}
		if _, ok := r.NS["queue_wait"]; ok {
			t.Fatal("zero stage exported in ns map")
		}
	}
	if n != 1 {
		t.Fatalf("wrote %d lines, want 1", n)
	}
}

func TestOnSpanHook(t *testing.T) {
	c := NewCollector(8)
	c.SetSampleEvery(2)
	var seen []SpanRecord
	c.SetOnSpan(func(r SpanRecord) { seen = append(seen, r) })
	for i := 0; i < 6; i++ {
		window(c, "s", func(sp *Span) { sp.Set(StageWindowTotal, 5) })
	}
	if len(seen) != 3 {
		t.Fatalf("hook saw %d spans, want 3", len(seen))
	}
}

// TestTailCaptureRetainsWithoutFolding: an unsampled record handed to
// Record (a window over its real-time budget) lands in the ring and the
// span log but stays out of the deterministic fold and the outlier
// tracker; min_total filtering keeps the most recent qualifying windows.
func TestTailCaptureRetainsWithoutFolding(t *testing.T) {
	c := NewCollector(8)
	o := NewOutliers(4)
	c.SetOutliers(o)
	var logged int
	c.SetOnSpan(func(SpanRecord) { logged++ })
	for i := 1; i <= 5; i++ {
		sp := Span{Stream: "tail", Window: int64(i)}
		sp.Set(StageDecode, time.Duration(i)*time.Millisecond)
		sp.Set(StageWindowTotal, time.Duration(i)*time.Millisecond)
		c.Record(&sp, false)
	}
	if got := c.Spans(0); len(got) != 5 || logged != 5 {
		t.Fatalf("ring holds %d, hook saw %d; want 5/5", len(got), logged)
	}
	if a := c.Aggregate(); a.Windows != 0 || c.Sampled() != 0 {
		t.Fatalf("tail captures folded into the aggregate: %+v", a.Counts())
	}
	if items := o.Slowest.Items(0); len(items) != 0 {
		t.Fatalf("tail captures fed the outlier tracker: %+v", items)
	}
	// Ingest totals are 2,4,6,8,10 ms: ≥ 6ms keeps windows 3..5, and the
	// limit keeps the most recent of those.
	var buf bytes.Buffer
	if err := c.WriteSpans(&buf, 2, 6*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var windows []int64
	for sc := bufio.NewScanner(&buf); sc.Scan(); {
		var r SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		windows = append(windows, r.Window)
	}
	if len(windows) != 2 || windows[0] != 4 || windows[1] != 5 {
		t.Fatalf("min_total=6ms limit=2 windows = %v, want [4 5]", windows)
	}
}

func TestAllocAttribution(t *testing.T) {
	c := NewCollector(8)
	c.SetSampleEvery(1)
	c.SetAllocEvery(1)
	var sp Span
	if !c.Draw(&sp) || !sp.AllocSampled() {
		t.Fatal("span not alloc-sampled with allocEvery=1")
	}
	sink := make([]*int, 0, 1024)
	for i := 0; i < 1024; i++ {
		v := i
		sink = append(sink, &v)
	}
	// The allocated-objects counter drains from per-P caches lazily, so the
	// observed delta under-counts (the documented approximation); a GC
	// flushes enough that 1024 fresh objects always leave a positive delta.
	runtime.GC()
	sp.AllocMark(StageSketch)
	_ = sink
	sp.Set(StageWindowTotal, 1)
	c.Record(&sp, true)
	a := c.Aggregate()
	if a.AllocSampled != 1 {
		t.Fatalf("AllocSampled = %d", a.AllocSampled)
	}
	got := c.Spans(0)
	if len(got) != 1 || got[0].AllocObjs["sketch"] <= 0 {
		t.Fatalf("sketch alloc delta = %v, want > 0", got[0].AllocObjs)
	}
	// AllocMark on a nil or unsampled span must be a safe no-op.
	var nilSpan *Span
	nilSpan.AllocMark(StageProbe)
	(&Span{}).AllocMark(StageProbe)
}

func TestResetClearsEverything(t *testing.T) {
	c := NewCollector(8)
	c.SetSampleEvery(1)
	window(c, "s", func(sp *Span) { sp.Set(StageWindowTotal, 9) })
	c.Reset()
	if c.Sampled() != 0 || len(c.Spans(0)) != 0 {
		t.Fatal("Reset left state behind")
	}
	a := c.Aggregate()
	if a.Windows != 0 || a.Stages[StageWindowTotal].Count != 0 {
		t.Fatalf("aggregate after reset = %+v", a)
	}
}

func TestTopKSpaceSaving(t *testing.T) {
	tk := NewTopK(2)
	tk.Observe("a", 10)
	tk.Observe("b", 5)
	tk.Observe("a", 1)
	// "c" displaces the minimum ("b", 5): count = 5+2, err = 5.
	tk.Observe("c", 2)
	items := tk.Items(0)
	if len(items) != 2 {
		t.Fatalf("len = %d", len(items))
	}
	if items[0].Key != "a" || items[0].Count != 11 || items[0].Err != 0 {
		t.Fatalf("items[0] = %+v", items[0])
	}
	if items[1].Key != "c" || items[1].Count != 7 || items[1].Err != 5 {
		t.Fatalf("items[1] = %+v", items[1])
	}
	if tk.Max() != 11 || tk.Len() != 2 {
		t.Fatalf("max=%d len=%d", tk.Max(), tk.Len())
	}
	if got := tk.Items(1); len(got) != 1 || got[0].Key != "a" {
		t.Fatalf("Items(1) = %+v", got)
	}
	tk.Observe("x", 0)
	tk.Observe("x", -4)
	if tk.Len() != 2 {
		t.Fatal("non-positive weight inserted a key")
	}
	tk.Reset()
	if tk.Len() != 0 || tk.Max() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	// Two entries at equal minimum count: eviction must pick the
	// lexicographically smaller key every run.
	for run := 0; run < 8; run++ {
		tk := NewTopK(2)
		tk.Observe("bb", 3)
		tk.Observe("aa", 3)
		tk.Observe("zz", 1)
		items := tk.Items(0)
		keys := map[string]bool{}
		for _, it := range items {
			keys[it.Key] = true
		}
		if !keys["bb"] || !keys["zz"] || keys["aa"] {
			t.Fatalf("run %d evicted wrong key: %+v", run, items)
		}
	}
}

func TestOutliersReport(t *testing.T) {
	o := NewOutliers(4)
	o.Slowest.Observe("s1", 100)
	o.ObserveShed("s2", 7)
	o.ObserveBackpressure("s3", 30)
	o.ObserveBackpressure("s4", 10)
	r := o.Report(1)
	if r.Schema != "vcd_fleet_top/v1" || r.K != 4 {
		t.Fatalf("header = %+v", r)
	}
	if len(r.Slowest) != 1 || r.Slowest[0].Key != "s1" {
		t.Fatalf("slowest = %+v", r.Slowest)
	}
	if len(r.Backpressure) != 1 || r.Backpressure[0].Key != "s3" {
		t.Fatalf("backpressure = %+v", r.Backpressure)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var round Report
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatal(err)
	}
	o.Reset()
	if got := o.Report(0); len(got.Shed) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestCollectorFeedsOutliers(t *testing.T) {
	c := NewCollector(8)
	o := NewOutliers(4)
	c.SetOutliers(o)
	c.SetSampleEvery(1)
	window(c, "slow-stream", func(sp *Span) { sp.Set(StageWindowTotal, 123456) })
	items := o.Slowest.Items(0)
	if len(items) != 1 || items[0].Key != "slow-stream" || items[0].Count != 123456 {
		t.Fatalf("slowest = %+v", items)
	}
}

func TestProfilerRing(t *testing.T) {
	dir := t.TempDir()
	// Drive capture directly with a short period so the test stays fast;
	// lifecycle (goroutine + ticker + Stop) is covered separately below.
	p := &Profiler{dir: dir, every: 80 * time.Millisecond, keep: 2,
		stop: make(chan struct{}), done: make(chan struct{})}
	if err := p.capture(0); err != nil {
		t.Fatal(err)
	}
	if err := p.capture(1); err != nil {
		t.Fatal(err)
	}
	if err := p.capture(0); err != nil { // ring wraps: slot 0 overwritten
		t.Fatal(err)
	}
	lp, err := StartProfiler(t.TempDir(), time.Minute, 2)
	if err != nil {
		t.Fatal(err)
	}
	lp.Stop()
	for _, name := range []string{"cpu-0.pprof", "cpu-1.pprof", "heap-0.pprof", "heap-1.pprof"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
	if _, err := StartProfiler("", time.Second, 2); err == nil {
		t.Fatal("empty dir accepted")
	}
}
