// Package benchkit holds the window-matching benchmark workload and a
// programmatic runner, shared between the repo's `go test -bench` suite
// and vcdbench's -bench-json mode so both measure exactly the same thing.
package benchkit

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"vdsms/internal/core"
	"vdsms/internal/perfobs"
	"vdsms/internal/telemetry"
)

// WindowWorkload builds the parallel-kernel benchmark fixture: a Table I
// default engine (K=800, δ=0.7, λ=2, w=10 key frames, Bit/Sequential/index)
// with 200 queries drawn from one shared alphabet, so every window's probe
// touches many queries and the per-window matching cost dominates. Returns
// the engine, prefilled to steady state, and a pool of pre-built basic
// windows to cycle through.
func WindowWorkload(workers int) (*core.Engine, [][]uint64, error) {
	cfg := core.Config{
		K: 800, Seed: 9, Delta: 0.7, Lambda: 2, WindowFrames: 10,
		Method: core.Bit, Order: core.Sequential, UseIndex: true,
		Workers: workers,
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(1234))
	alphabet := 600
	for id := 1; id <= 200; id++ {
		ids := make([]uint64, 40+rng.Intn(40))
		for i := range ids {
			ids[i] = uint64(rng.Intn(alphabet))
		}
		if err := eng.AddQuery(id, ids); err != nil {
			return nil, nil, err
		}
	}
	wins := make([][]uint64, 64)
	for w := range wins {
		win := make([]uint64, cfg.WindowFrames)
		for i := range win {
			win[i] = uint64(rng.Intn(alphabet))
		}
		wins[w] = win
	}
	// Prefill so the candidate list is in steady state before timing.
	for i := 0; i < 32; i++ {
		eng.PushFrames(wins[i%len(wins)])
	}
	return eng, wins, nil
}

// Result is one benchmark measurement.
type Result struct {
	Name          string  `json:"name"`
	Workers       int     `json:"workers"`
	Telemetry     bool    `json:"telemetry"`
	NsPerOp       float64 `json:"ns_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	WindowsPerSec float64 `json:"windows_per_sec"`
	// SpanEvery is the span sampling cadence a perf-span variant ran at
	// (1 = every window, 0 = collector attached but sampling off).
	SpanEvery int `json:"span_every,omitempty"`
	// StageNS is the span-derived mean duration per pipeline stage, in
	// nanoseconds — present only when the variant sampled spans.
	StageNS map[string]float64 `json:"stage_ns,omitempty"`
}

// Report is the vcdbench -bench-json document.
type Report struct {
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	CPUs      int      `json:"cpus"`
	Results   []Result `json:"results"`
}

// BenchWindow measures steady-state basic-window processing — probe plus
// candidate evaluation — at the given worker count, with stage telemetry on
// or off. One op is one full basic window through PushFrames.
func BenchWindow(name string, workers int, telemetryOn bool) (Result, error) {
	eng, wins, err := WindowWorkload(workers)
	if err != nil {
		return Result{}, err
	}
	prev := telemetry.SetEnabled(telemetryOn)
	defer telemetry.SetEnabled(prev)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.PushFrames(wins[i%len(wins)])
		}
	})
	ns := float64(r.NsPerOp())
	res := Result{
		Name: name, Workers: workers, Telemetry: telemetryOn,
		NsPerOp:     ns,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if ns > 0 {
		res.WindowsPerSec = 1e9 / ns
	}
	return res, nil
}

// BenchWindowSpans measures the same steady-state window workload with a
// perf-span collector attached at the given sampling cadence (0 = attached
// but off, the zero-overhead contract; 1 = every window) and telemetry
// disabled, isolating the span machinery's own cost. The result carries
// the span-derived per-stage mean breakdown when anything was sampled.
func BenchWindowSpans(name string, workers, every int) (Result, error) {
	eng, wins, err := WindowWorkload(workers)
	if err != nil {
		return Result{}, err
	}
	col := perfobs.NewCollector(perfobs.DefaultRing)
	col.SetSampleEvery(int64(every))
	eng.SetPerf(col, "bench", 0)
	prev := telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(prev)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.PushFrames(wins[i%len(wins)])
		}
	})
	ns := float64(r.NsPerOp())
	res := Result{
		Name: name, Workers: workers,
		NsPerOp:     ns,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		SpanEvery:   every,
	}
	if ns > 0 {
		res.WindowsPerSec = 1e9 / ns
	}
	agg := col.Aggregate()
	if agg.Windows > 0 {
		res.StageNS = make(map[string]float64)
		for st := perfobs.Stage(0); st < perfobs.NumStages; st++ {
			if agg.Stages[st].Count > 0 {
				res.StageNS[st.String()] = agg.MeanNS(st)
			}
		}
	}
	return res, nil
}

// RunWindowBenchmarks runs the standard vcdbench -bench-json suite: the
// serial kernel with telemetry on and off (the instrumentation-overhead
// pair EXPERIMENTS.md reports), the parallel kernel at 2/4/8 shards, and
// the span-sampling ladder (collector attached at 0% / 1% / 100%) whose
// 100% rung carries the per-stage breakdown.
func RunWindowBenchmarks(progress func(Result)) ([]Result, error) {
	specs := []struct {
		name      string
		workers   int
		telemetry bool
	}{
		{"WindowSerial", 0, true},
		{"WindowSerialNoTelemetry", 0, false},
		{"WindowParallel2", 2, true},
		{"WindowParallel4", 4, true},
		{"WindowParallel8", 8, true},
	}
	results := make([]Result, 0, len(specs)+3)
	for _, s := range specs {
		r, err := BenchWindow(s.name, s.workers, s.telemetry)
		if err != nil {
			return nil, fmt.Errorf("benchkit: %s: %w", s.name, err)
		}
		if progress != nil {
			progress(r)
		}
		results = append(results, r)
	}
	for _, s := range []struct {
		name  string
		every int
	}{
		{"WindowSerialSpansOff", 0},
		{"WindowSerialSpans1pct", 100},
		{"WindowSerialSpansAll", 1},
	} {
		r, err := BenchWindowSpans(s.name, 0, s.every)
		if err != nil {
			return nil, fmt.Errorf("benchkit: %s: %w", s.name, err)
		}
		if progress != nil {
			progress(r)
		}
		results = append(results, r)
	}
	return results, nil
}

// WriteReport wraps results with the platform stamp and writes them as
// indented JSON.
func WriteReport(w io.Writer, results []Result) error {
	rep := Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Results:   results,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
