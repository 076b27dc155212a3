package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"
)

// metric is one reported number with its unit and the number of samples
// (passes, windows, operations or frames) behind it.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// report collects one run's results: end-to-end metrics (untraced runs),
// per-layer metrics (traced runs), operation accounting and the outcome of
// every output check.
type report struct {
	workload string
	seed     int64
	digest   string
	trace    bool

	e2e, layer        []metric
	attempted, failed int
	checks            []check
	notes             []string
	// invalid, when set, names why the run's numbers must not be used.
	invalid string
}

// tableOnly names metrics printed in the table but left out of the result
// line. failed_share is 0 on a healthy run, so the result line carries
// served_share (1 − failed_share) and the attempted/failed counts instead.
// The window and churn latencies are set by the host on a shared 2-vCPU
// machine: under sustained CPU steal a several-millisecond operation
// overlaps a descheduled slice more often than not, and over ten seeds
// their interquartile range reached 29–52% of the median (p99 50–170%),
// wider than any bound a regression gate may use. The result line keeps
// the figures that held within 16% on the same runs: throughput, CPU cost,
// set-up, memory, quality and served share.
var tableOnly = map[string]bool{
	"failed_share":  true,
	"window_p50_ms": true,
	"window_p90_ms": true,
	"window_p99_ms": true,
	"churn_p50_ms":  true,
	"churn_p90_ms":  true,
}

type check struct {
	name string
	ok   bool
	msg  string
}

func (r *report) add(dst *[]metric, name string, v float64, unit string, n int) {
	*dst = append(*dst, metric{Name: name, Value: v, Unit: unit, N: n})
}

func (r *report) addE2E(name string, v float64, unit string, n int) {
	r.add(&r.e2e, name, v, unit, n)
}

func (r *report) addLayer(name string, v float64, unit string, n int) {
	r.add(&r.layer, name, v, unit, n)
}

// expect records an output check.
func (r *report) expect(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, msg: fmt.Sprintf(format, args...)})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

// write prints the human-readable table, then the one-line JSON result
// with the metrics of the run's mode: end-to-end when untraced, per-layer
// when traced.
func (r *report) write(w io.Writer) error {
	mode := "untraced"
	if r.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d mode=%s inputs=%s\n", r.workload, r.seed, mode, r.digest)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, c := range r.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-24s %s\n", status, c.name, c.msg)
	}
	table := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "  %-36s %14s %-8s %8s\n", title, "value", "unit", "samples")
		for _, m := range ms {
			fmt.Fprintf(w, "  %-36s %14.6g %-8s %8d\n", m.Name, m.Value, m.Unit, m.N)
		}
	}
	table("end-to-end", r.e2e)
	table("per-layer", r.layer)
	if r.invalid != "" {
		fmt.Fprintf(w, "  INVALID RUN: %s\n", r.invalid)
		return nil
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: r.correct(), Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]val{}}
	src := r.e2e
	if r.trace {
		src = r.layer
	}
	for _, m := range src {
		if tableOnly[m.Name] {
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		out.Metrics[m.Name] = val{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// samples accumulates an untraced run's end-to-end samples over its
// rounds.
type samples struct {
	setupS    []float64 // seconds per set-up
	heapMB    float64   // live heap added by the first set-up
	rate, cpu []float64 // key frames per second and CPU µs per key frame, per closed-loop pass or unit
	frames    int       // closed-loop key frames
	open      windowLog
	// gap is the open-loop schedule's time between two windows of one
	// stream (see reportWindows).
	gap   time.Duration
	pairs []float64 // churn pair latencies, ms (see pairMS)
}

func (s *samples) addPass(frames int, wall, cpu time.Duration) {
	s.rate = append(s.rate, float64(frames)/wall.Seconds())
	s.cpu = append(s.cpu, float64(cpu.Nanoseconds())/1e3/float64(frames))
	s.frames += frames
}

// report adds the end-to-end metrics; churn only when the run churned.
func (s *samples) report(rep *report) error {
	rep.addE2E("setup_s", median(s.setupS), "s", len(s.setupS))
	rep.addE2E("heap_mb", s.heapMB, "MB", 1)
	rep.addE2E("keyframes_per_s", median(s.rate), "1/s", s.frames)
	rep.addE2E("cpu_us_per_keyframe", median(s.cpu), "us", s.frames)
	if err := reportWindows(rep, &s.open, s.gap); err != nil {
		return err
	}
	if len(s.pairs) > 0 {
		rep.attempted += 2 * len(s.pairs)
		rep.addE2E("churn_p50_ms", steadyQuantile(s.pairs, 0.5), "ms", len(s.pairs))
		rep.addE2E("churn_p90_ms", steadyQuantile(s.pairs, 0.9), "ms", len(s.pairs))
	}
	return nil
}

// reportWindows reports window latency and failures from an open-loop
// log. Median and p90 are steady quantiles (see steadyQuantile); the p99
// and the highest supported tail are taken over the whole log. gap is the
// schedule's time between two windows of one stream: a run whose generator
// was later than that at p99 (a steady quantile, as the latencies it
// qualifies) fell behind its own schedule — a stream's windows arrived
// bunched — and is marked invalid.
func reportWindows(rep *report, log *windowLog, gap time.Duration) error {
	n := len(log.latMS)
	if !supported(n, 99) {
		return fmt.Errorf("open loop produced %d windows, too few for a p99", n)
	}
	rep.attempted += n
	rep.failed += log.failed
	failed := float64(log.failed) / float64(n)
	rep.addE2E("window_p50_ms", steadyQuantile(log.latMS, 0.5), "ms", n)
	rep.addE2E("window_p90_ms", steadyQuantile(log.latMS, 0.9), "ms", n)
	rep.addE2E("window_p99_ms", quantile(log.latMS, 0.99), "ms", n)
	t := highestTail(log.latMS)
	rep.note("window latency tail: p%g = %.4g ms over %d windows", t.P, t.Value, t.N)
	rep.addE2E("failed_share", failed, "share", n)
	rep.addE2E("served_share", 1-failed, "share", n)
	late := steadyQuantile(log.lateMS, 0.99)
	rep.addLayer("gen.late_p99_ms", late, "ms", len(log.lateMS))
	if late > ms(gap) {
		rep.invalid = fmt.Sprintf("generator p99 lateness %.3g ms exceeds the %.3g ms between a stream's windows", late, ms(gap))
	}
	return nil
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintf(os.Stderr, "getrusage: %v\n", err)
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap returns the live heap in bytes after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
