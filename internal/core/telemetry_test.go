package core

import (
	"math/rand"
	"testing"
	"time"

	"vdsms/internal/degrade"
	"vdsms/internal/perfobs"
	"vdsms/internal/telemetry"
)

// telemetryEngine builds a small engine with a few overlapping queries so
// windows do real probe/combine work.
func telemetryEngine(t *testing.T, workers int) (*Engine, [][]uint64) {
	t.Helper()
	cfg := Config{
		K: 64, Seed: 5, Delta: 0.5, Lambda: 2, WindowFrames: 4,
		Method: Bit, Order: Sequential, UseIndex: true, Workers: workers,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for id := 1; id <= 12; id++ {
		ids := make([]uint64, 16)
		for i := range ids {
			ids[i] = uint64(rng.Intn(40))
		}
		if err := eng.AddQuery(id, ids); err != nil {
			t.Fatal(err)
		}
	}
	wins := make([][]uint64, 8)
	for w := range wins {
		win := make([]uint64, cfg.WindowFrames)
		for i := range win {
			win[i] = uint64(rng.Intn(40))
		}
		wins[w] = win
	}
	return eng, wins
}

// TestTelemetryCounters verifies the engine folds its work into the
// process-wide registry: windows, frames and per-shard comparisons all
// advance by the amounts the engine's own Stats report.
func TestTelemetryCounters(t *testing.T) {
	eng, wins := telemetryEngine(t, 2)
	before := readAll(t)
	for _, w := range wins {
		eng.PushFrames(w)
	}
	after := readAll(t)
	st := eng.Stats()

	if got := after["windows"] - before["windows"]; got != float64(st.Windows) {
		t.Errorf("vcd_windows_processed_total advanced by %v, want %d", got, st.Windows)
	}
	if got := after["frames"] - before["frames"]; got != float64(st.Frames) {
		t.Errorf("vcd_frames_total advanced by %v, want %d", got, st.Frames)
	}
	var compared float64
	for _, sh := range st.Shards {
		compared += float64(sh.Compared)
	}
	if got := after["compared"] - before["compared"]; got != compared {
		t.Errorf("vcd_shard_compared_total advanced by %v, want %v", got, compared)
	}
}

// readAll snapshots the counters this test asserts deltas on (the
// registry is process-wide and shared with other tests in the package).
func readAll(t *testing.T) map[string]float64 {
	t.Helper()
	out := map[string]float64{
		"windows": float64(telWindows.Value()),
		"frames":  float64(telFrames.Value()),
	}
	var compared int64
	for i := 0; i < 64; i++ {
		compared += shardComparedCounter(i).Value()
	}
	out["compared"] = float64(compared)
	return out
}

// TestStageHistogramsObserve checks every stage series gains exactly one
// observation per processed window while telemetry is enabled.
func TestStageHistogramsObserve(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	eng, wins := telemetryEngine(t, 0)
	stages := map[string]*telemetry.Histogram{}
	for _, st := range []perfobs.Stage{
		perfobs.StageSketch, perfobs.StageProbe, perfobs.StageCombine,
		perfobs.StageMerge, perfobs.StageWindowTotal,
	} {
		stages[st.String()] = stageHist[st]
	}
	before := make(map[string]int64, len(stages))
	for name, h := range stages {
		before[name] = h.Count()
	}
	for _, w := range wins {
		eng.PushFrames(w)
	}
	windows := int64(eng.Stats().Windows)
	if windows == 0 {
		t.Fatal("no windows processed")
	}
	for name, h := range stages {
		if got := h.Count() - before[name]; got != windows {
			t.Errorf("stage %s observed %d windows, want %d", name, got, windows)
		}
	}
}

// TestStageTimingDisabled checks SetEnabled(false) actually stops the
// histograms (the benchmark-overhead configuration).
func TestStageTimingDisabled(t *testing.T) {
	prev := telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(prev)
	eng, wins := telemetryEngine(t, 0)
	before := stageHist[perfobs.StageWindowTotal].Count()
	for _, w := range wins {
		eng.PushFrames(w)
	}
	if got := stageHist[perfobs.StageWindowTotal].Count() - before; got != 0 {
		t.Errorf("stage histograms observed %d windows with telemetry disabled, want 0", got)
	}
}

// TestTailCapture gives every window a 1ns real-time budget with span
// sampling off: each window must land in the collector's ring with its
// kernel stage breakdown, move vcd_slow_windows_total once, and stay out
// of the sampled fold.
func TestTailCapture(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	for _, workers := range []int{0, 3} {
		eng, wins := telemetryEngine(t, workers)
		col := perfobs.NewCollector(64)
		eng.SetPerf(col, "tail", time.Nanosecond)
		slowBefore := telSlowWindows.Value()
		for _, w := range wins {
			eng.PushFrames(w)
		}
		windows := eng.Stats().Windows
		spans := col.Spans(0)
		if len(spans) != windows {
			t.Fatalf("workers=%d: %d spans captured for %d windows", workers, len(spans), windows)
		}
		if got := telSlowWindows.Value() - slowBefore; got != int64(windows) {
			t.Errorf("workers=%d: vcd_slow_windows_total moved by %d, want %d", workers, got, windows)
		}
		if col.Sampled() != 0 {
			t.Errorf("workers=%d: tail captures folded as %d samples", workers, col.Sampled())
		}
		for i, sp := range spans {
			if sp.Stream != "tail" || sp.EndFrame-sp.StartFrame != eng.cfg.WindowFrames {
				t.Errorf("workers=%d span %d: stream %q frames [%d,%d)", workers, i, sp.Stream, sp.StartFrame, sp.EndFrame)
			}
			total := sp.NS["window_total"]
			if total <= 0 {
				t.Errorf("workers=%d span %d: window_total = %d", workers, i, total)
			}
			var sum int64
			for _, st := range []string{"sketch", "probe", "combine", "merge"} {
				if sp.NS[st] <= 0 {
					t.Errorf("workers=%d span %d: stage %s = %d, want > 0", workers, i, st, sp.NS[st])
				}
				sum += sp.NS[st]
			}
			if sum > 10*total+int64(time.Millisecond) {
				t.Errorf("workers=%d span %d: stage sum %d wildly exceeds total %d", workers, i, sum, total)
			}
		}
	}
}

// TestTailCaptureQuietUnderBudget gives every window an hour of budget:
// nothing may be captured or counted.
func TestTailCaptureQuietUnderBudget(t *testing.T) {
	eng, wins := telemetryEngine(t, 2)
	col := perfobs.NewCollector(64)
	eng.SetPerf(col, "quiet", time.Hour)
	slowBefore := telSlowWindows.Value()
	for _, w := range wins {
		eng.PushFrames(w)
	}
	if n := len(col.Spans(0)); n != 0 {
		t.Errorf("%d windows captured under an hour budget", n)
	}
	if got := telSlowWindows.Value() - slowBefore; got != 0 {
		t.Errorf("vcd_slow_windows_total moved by %d under an hour budget", got)
	}
}

// TestTailCaptureBudgetResolution: an attached controller's live budget
// overrides the window budget, a retune takes effect at the next window,
// and a disabled controller falls back to the window budget.
func TestTailCaptureBudgetResolution(t *testing.T) {
	eng, wins := telemetryEngine(t, 0)
	col := perfobs.NewCollector(64)
	eng.SetPerf(col, "budget", time.Nanosecond)
	ctl := degrade.NewController(degrade.ControllerConfig{Budget: time.Hour})
	eng.SetController(ctl)
	captured := func() int {
		n := len(col.Spans(0))
		col.Reset()
		return n
	}
	eng.PushFrames(wins[0])
	if n := captured(); n != 0 {
		t.Errorf("controller budget 1h: %d windows captured, want 0", n)
	}
	ctl.SetBudget(time.Nanosecond)
	eng.PushFrames(wins[1])
	if n := captured(); n != 1 {
		t.Errorf("controller retuned to 1ns: %d windows captured, want 1", n)
	}
	ctl.SetBudget(0)
	eng.PushFrames(wins[2])
	if n := captured(); n != 1 {
		t.Errorf("controller disabled, 1ns window budget: %d windows captured, want 1", n)
	}
}

// TestUntimedWindowsCaptureNothing: with telemetry off, sampling off and
// no controller, no sink listens — the engine offers no record, times
// nothing and captures nothing, whatever the budget.
func TestUntimedWindowsCaptureNothing(t *testing.T) {
	prev := telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(prev)
	eng, wins := telemetryEngine(t, 0)
	col := perfobs.NewCollector(64)
	eng.SetPerf(col, "off", time.Nanosecond)
	if eng.Span() != nil {
		t.Fatal("Span() offered a record with no sink listening")
	}
	slowBefore := telSlowWindows.Value()
	for _, w := range wins {
		eng.PushFrames(w)
	}
	if n := len(col.Spans(0)); n != 0 {
		t.Errorf("%d windows captured with nothing listening", n)
	}
	if got := telSlowWindows.Value() - slowBefore; got != 0 {
		t.Errorf("vcd_slow_windows_total moved by %d with nothing timed", got)
	}
	if eng.span != (perfobs.Span{}) {
		t.Errorf("untimed window left a record behind: %+v", eng.span)
	}
}

// TestTelemetryDeterminism re-checks the serial/parallel contract with
// telemetry on, every window sampled and (slow = 1ns) tail-captured:
// instrumentation must not perturb matches.
func TestTelemetryDeterminism(t *testing.T) {
	run := func(workers int, slow time.Duration) []Match {
		eng, wins := telemetryEngine(t, workers)
		col := perfobs.NewCollector(64)
		col.SetSampleEvery(1)
		eng.SetPerf(col, "det", slow)
		for _, w := range wins {
			eng.PushFrames(w)
		}
		return eng.Matches
	}
	base := run(0, 0)
	for _, workers := range []int{0, 2, 5} {
		for _, slow := range []time.Duration{0, time.Nanosecond} {
			got := run(workers, slow)
			if len(got) != len(base) {
				t.Fatalf("workers=%d slow=%v: %d matches, want %d", workers, slow, len(got), len(base))
			}
			for i := range got {
				if got[i] != base[i] {
					t.Fatalf("workers=%d slow=%v: match %d = %+v, want %+v", workers, slow, i, got[i], base[i])
				}
			}
		}
	}
}
