package core

import (
	"math/rand"
	"reflect"
	"testing"

	"vdsms/internal/trace"
)

// traceRun pushes determinism_test.go's workload through an engine with
// tracing (and optionally auditing) armed, returning the match stream, the
// journaled events and the provenance records.
func traceRun(t *testing.T, v variant, workers, k int, auditEvery int) ([]Match, []trace.Event, []trace.MatchRecord) {
	t.Helper()
	cfg := Config{
		K: k, Seed: 5, Delta: 0.5, Lambda: 2, WindowFrames: 10,
		Order: v.order, Method: v.method, UseIndex: v.useIndex,
		Workers: workers,
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := trace.NewJournal(1<<17, 512)
	e.Trace(j, "t")
	if auditEvery > 0 {
		e.SetAudit(auditEvery)
	}
	rng := rand.New(rand.NewSource(42))
	queries := make([][]uint64, 7)
	for i := range queries {
		queries[i] = idStream(rng, i+1, 40+10*i)
		if err := e.AddQuery(i+1, queries[i]); err != nil {
			t.Fatal(err)
		}
	}
	var stream []uint64
	stream = append(stream, idStream(rng, 50, 95)...)
	for _, qi := range []int{2, 0, 5, 3} {
		stream = append(stream, queries[qi]...)
		stream = append(stream, idStream(rng, 60+qi, 57)...)
	}
	e.PushFrames(stream)
	e.Flush()
	return e.Matches, j.Events(trace.Filter{Kind: trace.KindAny}), j.Matches(0)
}

// TestTracingDoesNotPerturbMatches: arming tracing plus the exact-audit
// sampler must leave the match stream byte-identical to an untraced run,
// for every variant, serial and parallel.
func TestTracingDoesNotPerturbMatches(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for _, workers := range []int{0, 4} {
				wantM, _ := detRun(t, v, workers, true)
				gotM, _, _ := traceRun(t, v, workers, 192, 3)
				if !reflect.DeepEqual(gotM, wantM) {
					t.Errorf("Workers=%d: tracing perturbed matches\nuntraced: %+v\ntraced:   %+v",
						workers, wantM, gotM)
				}
			}
		})
	}
}

// TestTraceWorkerInvariance: the folded event stream and the provenance
// records must be identical for every worker count — the contract that
// makes /debug/events reproducible regardless of deployment parallelism.
func TestTraceWorkerInvariance(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			_, wantE, wantR := traceRun(t, v, 0, 192, 0)
			if len(wantE) == 0 {
				t.Fatal("serial run journaled no events")
			}
			for _, workers := range []int{1, 4, 8} {
				_, gotE, gotR := traceRun(t, v, workers, 192, 0)
				if !reflect.DeepEqual(gotE, wantE) {
					i := 0
					for i < len(gotE) && i < len(wantE) && gotE[i] == wantE[i] {
						i++
					}
					t.Fatalf("Workers=%d: event stream diverges from serial at index %d (serial %d events, parallel %d)",
						workers, i, len(wantE), len(gotE))
				}
				if !reflect.DeepEqual(gotR, wantR) {
					t.Errorf("Workers=%d: provenance records diverge\nserial:   %+v\nparallel: %+v",
						workers, wantR, gotR)
				}
			}
		})
	}
}

// TestTraceLifecycleCoverage: the workload's copies must produce the full
// lifecycle vocabulary, and reported events must align with the match
// stream.
func TestTraceLifecycleCoverage(t *testing.T) {
	matches, events, records := traceRun(t, variants[0], 0, 192, 0)
	byKind := map[trace.Kind]int{}
	for _, ev := range events {
		byKind[ev.Kind]++
	}
	for _, k := range []trace.Kind{trace.Born, trace.Extended, trace.Expired, trace.Reported} {
		if byKind[k] == 0 {
			t.Errorf("no %s events journaled", k)
		}
	}
	if len(records) != len(matches) {
		t.Fatalf("%d provenance records for %d matches", len(records), len(matches))
	}
	for i, rec := range records {
		m := matches[i]
		if rec.ID != uint64(i+1) || rec.QueryID != m.QueryID || rec.StartFrame != m.StartFrame ||
			rec.EndFrame != m.EndFrame || rec.Similarity != m.Similarity {
			t.Errorf("record %d does not describe match %d:\nrecord: %+v\nmatch:  %+v", rec.ID, i, rec, m)
		}
		if rec.Order != "sequential" || rec.Method != "bit" {
			t.Errorf("record %d labelled %s/%s", rec.ID, rec.Order, rec.Method)
		}
		if len(rec.Trajectory) == 0 {
			t.Errorf("record %d has no estimate trajectory", rec.ID)
		}
	}
}

// TestAuditReportsWithinBound: with the paper's K=800 and every report
// audited, the estimator error of every emitted match must stay inside
// Theorem 1's deviation bound — the live sketch-accuracy contract.
func TestAuditReportsWithinBound(t *testing.T) {
	for _, v := range []variant{variants[0], variants[6]} { // bit-seq-index, sketch-geo-index
		t.Run(v.name, func(t *testing.T) {
			for _, workers := range []int{0, 4} {
				_, _, records := traceRun(t, v, workers, 800, 1)
				if len(records) == 0 {
					t.Fatal("no matches to audit")
				}
				for _, rec := range records {
					if rec.Audit == nil {
						t.Errorf("match %d not audited despite every=1", rec.ID)
						continue
					}
					a := rec.Audit
					if a.Bound <= 0 || a.Bound > 0.1 {
						t.Errorf("match %d bound %v, want Theorem 1's ~0.095 for K=800", rec.ID, a.Bound)
					}
					if a.AbsError > a.Bound || a.Violated {
						t.Errorf("match %d estimator error %v exceeds bound %v (exact=%v estimate=%v)",
							rec.ID, a.AbsError, a.Bound, a.Exact, a.Estimate)
					}
				}
			}
		})
	}
}

// TestTraceDisabledAddsNoAllocations: a recorder armed but switched off
// must leave the steady-state window path with exactly the allocation
// profile of an engine that never heard of tracing.
func TestTraceDisabledAddsNoAllocations(t *testing.T) {
	build := func(armDisabled bool) (*Engine, [][]uint64) {
		cfg := Config{
			K: 128, Seed: 9, Delta: 0.7, Lambda: 2, WindowFrames: 10,
			Method: Bit, Order: Sequential, UseIndex: true,
		}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for id := 1; id <= 20; id++ {
			if err := e.AddQuery(id, idStream(rng, id, 40)); err != nil {
				t.Fatal(err)
			}
		}
		wins := make([][]uint64, 8)
		for w := range wins {
			wins[w] = idStream(rng, 50+w, cfg.WindowFrames)
		}
		for i := 0; i < 32; i++ {
			e.PushFrames(wins[i%len(wins)])
		}
		if armDisabled {
			r := e.Trace(trace.NewJournal(64, 8), "alloc")
			r.SetEnabled(false)
		}
		return e, wins
	}
	measure := func(e *Engine, wins [][]uint64) float64 {
		i := 0
		return testing.AllocsPerRun(200, func() {
			e.PushFrames(wins[i%len(wins)])
			i++
		})
	}
	eOff, wOff := build(false)
	eDis, wDis := build(true)
	base := measure(eOff, wOff)
	disabled := measure(eDis, wDis)
	if disabled > base {
		t.Errorf("disabled tracer allocates: %.2f allocs/window vs %.2f without a tracer", disabled, base)
	}
}
