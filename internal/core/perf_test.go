package core

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"vdsms/internal/perfobs"
)

// perfRun pushes a fixed multi-query workload through one engine wired to a
// private span collector sampling every window, and returns the
// deterministic projection of the fold.
func perfRun(t *testing.T, workers int) perfobs.AggCounts {
	t.Helper()
	col := perfobs.NewCollector(256)
	col.SetSampleEvery(1)
	cfg := Config{
		K: 192, Seed: 5, Delta: 0.5, Lambda: 2, WindowFrames: 10,
		Workers: workers,
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetPerf(col, "det-test", 0)
	rng := rand.New(rand.NewSource(42))
	queries := make([][]uint64, 5)
	for i := range queries {
		queries[i] = idStream(rng, i+1, 40+10*i)
		if err := e.AddQuery(i+1, queries[i]); err != nil {
			t.Fatal(err)
		}
	}
	var stream []uint64
	stream = append(stream, idStream(rng, 50, 95)...)
	for _, qi := range []int{2, 0, 3} {
		stream = append(stream, queries[qi]...)
		stream = append(stream, idStream(rng, 60+qi, 57)...)
	}
	e.PushFrames(stream)
	e.Flush()
	agg := col.Aggregate()
	if agg.Windows == 0 {
		t.Fatal("no spans sampled; SetPerf wiring is broken")
	}
	return agg.Counts()
}

// TestSpanFoldWorkerInvariant: the deterministic projection of the span
// fold — windows sampled, per-stage observation counts, related-candidate
// sum — must be byte-identical between the serial kernel and an 8-worker
// kernel. Durations are wall-clock and necessarily vary; the counts must
// not, or span aggregates become a function of deployment shape.
func TestSpanFoldWorkerInvariant(t *testing.T) {
	serial := perfRun(t, 0)
	for _, workers := range []int{1, 8} {
		par := perfRun(t, workers)
		if !reflect.DeepEqual(par, serial) {
			t.Errorf("Workers=%d: span fold counts diverge from serial\nserial:   %+v\nparallel: %+v",
				workers, serial, par)
		}
		sj, _ := json.Marshal(serial)
		pj, _ := json.Marshal(par)
		if string(sj) != string(pj) {
			t.Errorf("Workers=%d: JSON projection diverges\nserial:   %s\nparallel: %s",
				workers, sj, pj)
		}
	}
}

// TestPendingSpanConsumedOncePerWindow: staged front-end/fleet stage
// nanoseconds must land on exactly the next window's span and never smear
// into later windows, sampled or not.
func TestPendingSpanConsumedOncePerWindow(t *testing.T) {
	col := perfobs.NewCollector(64)
	col.SetSampleEvery(1)
	e, err := NewEngine(Config{K: 64, Seed: 1, Delta: 0.5, Lambda: 2, WindowFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	e.SetPerf(col, "s", 0)
	rng := rand.New(rand.NewSource(7))
	if err := e.AddQuery(1, idStream(rng, 1, 12)); err != nil {
		t.Fatal(err)
	}
	e.Span().Add(perfobs.StageQueueWait, 12345)
	e.PushFrames(idStream(rng, 9, 12)) // three basic windows
	e.Flush()
	spans := col.Spans(0)
	if len(spans) < 2 {
		t.Fatalf("sampled %d spans, want >= 2", len(spans))
	}
	if got := spans[0].NS["queue_wait"]; got != 12345 {
		t.Errorf("first window queue_wait = %d, want 12345", got)
	}
	for i, sp := range spans[1:] {
		if ns, ok := sp.NS["queue_wait"]; ok {
			t.Errorf("window %d inherited stale queue_wait = %d", i+1, ns)
		}
	}
}
