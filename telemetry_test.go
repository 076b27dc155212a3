package vdsms

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"vdsms/internal/perfobs"
	"vdsms/internal/telemetry"
)

// scrapeDefault renders and re-parses the process-wide registry — the same
// structural validation a Prometheus server would perform.
func scrapeDefault(t *testing.T) *telemetry.Exposition {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := telemetry.ParseExposition(&buf)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return exp
}

// settleGoroutines waits for the goroutine count to return to base,
// failing with a full stack dump if it does not — transient runtime
// goroutines (GC, finalizers) need the retry loop.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d running, monitor started with %d\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMonitorCancelNoLeakWritesCheckpoint cancels a checkpointed parallel
// monitor mid-stream and checks the two shutdown guarantees: every worker
// goroutine exits, and a final checkpoint lands in the directory so the
// next Resume starts from the cancellation point instead of replaying the
// whole WAL.
func TestMonitorCancelNoLeakWritesCheckpoint(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 3
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = time.Hour // periodic path off: only cancel checkpoints

	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddQuery(1, bytes.NewReader(clip(t, 71, 10))); err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	slow := &throttledReader{data: clip(t, 810, 60), delay: 2 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := det.MonitorContext(ctx, slow); err != context.DeadlineExceeded {
		t.Fatalf("MonitorContext = %v, want context.DeadlineExceeded", err)
	}
	settleGoroutines(t, base)

	ckpt := filepath.Join(cfg.CheckpointDir, CheckpointFileName)
	fi, err := os.Stat(ckpt)
	if err != nil {
		t.Fatalf("no final checkpoint after cancellation: %v", err)
	}
	if fi.Size() == 0 {
		t.Fatal("final checkpoint is empty")
	}

	// The checkpoint is live: a resume restores the subscription and keeps
	// monitoring.
	if err := det.Close(); err != nil {
		t.Fatal(err)
	}
	det2, found, err := Resume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det2.Close()
	if !found || det2.NumQueries() != 1 {
		t.Fatalf("Resume after cancel: found=%v queries=%d, want true/1", found, det2.NumQueries())
	}
	if _, err := det2.Monitor(bytes.NewReader(clip(t, 811, 20))); err != nil {
		t.Fatalf("monitoring after resume: %v", err)
	}
}

// TestMonitorCancelWithoutCheckpointing is the same cancellation with
// durability off: still no leak, still the context error, and no state
// files appear anywhere.
func TestMonitorCancelWithoutCheckpointing(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 2
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddQuery(1, bytes.NewReader(clip(t, 72, 10))); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	slow := &throttledReader{data: clip(t, 812, 60), delay: 2 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := det.MonitorContext(ctx, slow); err != context.DeadlineExceeded {
		t.Fatalf("MonitorContext = %v, want context.DeadlineExceeded", err)
	}
	settleGoroutines(t, base)
}

// TestWALTelemetryObserved checks the durability-path histograms move when
// a checkpointed monitor runs: every pushed batch is appended and fsynced,
// and the boundary checkpoints time their atomic writes.
func TestWALTelemetryObserved(t *testing.T) {
	before := scrapeDefault(t)

	cfg := testConfig()
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = time.Nanosecond // checkpoint at every window boundary
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddQuery(1, bytes.NewReader(clip(t, 73, 10))); err != nil {
		t.Fatal(err)
	}
	if _, err := det.Monitor(bytes.NewReader(clip(t, 813, 30))); err != nil {
		t.Fatal(err)
	}
	if err := det.Close(); err != nil {
		t.Fatal(err)
	}

	after := scrapeDefault(t)
	for _, name := range []string{
		"vcd_wal_append_duration_seconds_count",
		"vcd_wal_fsync_duration_seconds_count",
		"vcd_checkpoint_write_duration_seconds_count",
	} {
		a, ok := after.Value(name)
		if !ok {
			t.Errorf("scrape is missing %s", name)
			continue
		}
		b, _ := before.Value(name)
		if a-b <= 0 {
			t.Errorf("%s moved by %g, want > 0", name, a-b)
		}
	}
	a, _ := after.Value("vcd_wal_frames_total")
	b, _ := before.Value("vcd_wal_frames_total")
	if a-b != 60 { // 30 s at 2 key fps, every frame journalled
		t.Errorf("vcd_wal_frames_total moved by %g, want 60", a-b)
	}
}

// useSpans resets the process-wide span collector, sets its sampling
// cadence for the test and restores the defaults afterwards.
func useSpans(t *testing.T, every int64) {
	t.Helper()
	perfobs.Default.Reset()
	perfobs.Default.SetSampleEvery(every)
	t.Cleanup(func() {
		perfobs.Default.SetSampleEvery(0)
		perfobs.Default.Reset()
	})
}

// streamSpans returns the retained span records of one stream label.
func streamSpans(stream string) []perfobs.SpanRecord {
	var out []perfobs.SpanRecord
	for _, r := range perfobs.Default.Spans(0) {
		if r.Stream == stream {
			out = append(out, r)
		}
	}
	return out
}

// TestTailCaptureFacade arms an observe-only controller with an
// impossible budget and span sampling off: every basic window of a
// monitored stream must be tail-captured into the span ring with its full
// ingest breakdown and counted in vcd_slow_windows_total.
func TestTailCaptureFacade(t *testing.T) {
	useSpans(t, 0)
	cfg := testConfig()
	cfg.RealTimeBudget = time.Nanosecond
	cfg.StreamName = "tail-facade"
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddQuery(1, bytes.NewReader(clip(t, 74, 10))); err != nil {
		t.Fatal(err)
	}
	before := scrapeDefault(t)
	if _, err := det.Monitor(bytes.NewReader(clip(t, 814, 30))); err != nil {
		t.Fatal(err)
	}
	after := scrapeDefault(t)
	windows := det.Stats().Windows
	spans := streamSpans(cfg.StreamName)
	if windows == 0 || len(spans) != windows {
		t.Fatalf("%d windows tail-captured of %d", len(spans), windows)
	}
	a, _ := after.Value("vcd_slow_windows_total")
	b, _ := before.Value("vcd_slow_windows_total")
	if got := int(a - b); got != windows {
		t.Errorf("vcd_slow_windows_total moved by %d, want %d", got, windows)
	}
	for i, r := range spans {
		for _, st := range []string{"decode", "extract", "sketch", "probe", "combine", "merge", "window_total"} {
			if r.NS[st] <= 0 {
				t.Fatalf("span %d: stage %s = %d, want > 0 (%v)", i, st, r.NS[st], r.NS)
			}
		}
		if r.EndFrame <= r.StartFrame {
			t.Fatalf("span %d: frames [%d,%d)", i, r.StartFrame, r.EndFrame)
		}
	}
	if n := perfobs.Default.Sampled(); n != 0 {
		t.Errorf("tail captures folded as %d sampled spans", n)
	}
}

// TestTailCaptureFollowsRealTimeBudget: the tail-capture threshold is the
// lineage's live real-time budget — an hour captures nothing, and a
// runtime SetRealTimeBudget reaches every stream of the lineage at its
// next window.
func TestTailCaptureFollowsRealTimeBudget(t *testing.T) {
	useSpans(t, 0)
	cfg := testConfig()
	cfg.RealTimeBudget = time.Hour
	cfg.StreamName = "tail-budget"
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sib, err := det.NewStreamNamed("tail-budget-sibling")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Monitor(bytes.NewReader(clip(t, 815, 20))); err != nil {
		t.Fatal(err)
	}
	if n := len(perfobs.Default.Spans(0)); n != 0 {
		t.Fatalf("%d windows captured under an hour budget", n)
	}
	det.SetRealTimeBudget(time.Nanosecond)
	for _, d := range []*Detector{det, sib} {
		before := d.Stats().Windows
		if _, err := d.Monitor(bytes.NewReader(clip(t, 816, 20))); err != nil {
			t.Fatal(err)
		}
		want := d.Stats().Windows - before
		if got := len(streamSpans(d.perfLabel)); got != want {
			t.Errorf("stream %q: %d windows captured after retune to 1ns, want %d", d.perfLabel, got, want)
		}
	}
}

// TestControllerFeedMatchesSpans pins the one-record contract for the
// overload controller: with every window sampled and an observe-only
// controller that never changes level, the controller's steady mean ×
// window count equals the sum over spans of decode + extract +
// window_total, for a whole-stream Monitor and for a run of 3-frame
// segment Monitor calls alike (within RunMean's 1ns/window rounding).
func TestControllerFeedMatchesSpans(t *testing.T) {
	useSpans(t, 1)
	for _, tc := range []struct {
		name     string
		segments [][]byte
	}{
		{"whole", [][]byte{clip(t, 817, 30)}},
		{"segments", [][]byte{clip(t, 818, 1.5), clip(t, 819, 1.5), clip(t, 820, 1.5), clip(t, 821, 1.5)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.RealTimeBudget = time.Hour
			cfg.StreamName = "ctl-feed-" + tc.name
			det, err := NewDetector(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := det.AddQuery(1, bytes.NewReader(clip(t, 76, 10))); err != nil {
				t.Fatal(err)
			}
			for _, seg := range tc.segments {
				if _, err := det.Monitor(bytes.NewReader(seg)); err != nil {
					t.Fatal(err)
				}
			}
			var sum time.Duration
			spans := streamSpans(cfg.StreamName)
			for _, r := range spans {
				sum += time.Duration(r.NS["decode"] + r.NS["extract"] + r.NS["window_total"])
			}
			o := det.Overload()
			if o.Level != 0 || o.Transitions != 0 {
				t.Fatalf("controller moved under an hour budget: %+v", o)
			}
			if int(o.RunWindows) != len(spans) || len(spans) != det.Stats().Windows {
				t.Fatalf("controller saw %d windows, %d spans, engine %d", o.RunWindows, len(spans), det.Stats().Windows)
			}
			diff := o.RunMean*time.Duration(o.RunWindows) - sum
			if diff < 0 {
				diff = -diff
			}
			if diff > time.Duration(o.RunWindows) {
				t.Errorf("controller total %v (RunMean %v × %d) vs span total %v: off by %v",
					o.RunMean*time.Duration(o.RunWindows), o.RunMean, o.RunWindows, sum, diff)
			}
		})
	}
}

// TestMetricsDisabledStillCounts pins the Enabled contract at the facade:
// with stage timing off, histograms stay still while throughput counters
// keep moving.
func TestMetricsDisabledStillCounts(t *testing.T) {
	prev := telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(prev)
	before := scrapeDefault(t)

	det, err := NewDetector(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddQuery(1, bytes.NewReader(clip(t, 75, 10))); err != nil {
		t.Fatal(err)
	}
	if _, err := det.Monitor(bytes.NewReader(clip(t, 815, 20))); err != nil {
		t.Fatal(err)
	}

	after := scrapeDefault(t)
	delta := func(name string, labels ...telemetry.Label) float64 {
		a, _ := after.Value(name, labels...)
		b, _ := before.Value(name, labels...)
		return a - b
	}
	if d := delta("vcd_frames_total"); d != 40 {
		t.Errorf("vcd_frames_total moved by %g with telemetry off, want 40 (counters stay on)", d)
	}
	for _, stage := range []string{"decode", "extract", "window_total"} {
		if d := delta("vcd_stage_duration_seconds_count", telemetry.L("stage", stage)); d != 0 {
			t.Errorf("stage %q observed %g times with telemetry off, want 0", stage, d)
		}
	}
}
