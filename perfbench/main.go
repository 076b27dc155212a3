// Command perfbench is the repository's end-to-end and per-layer
// benchmark: MVC1 bytes in, matches out, through the public vdsms API.
//
//	perfbench --workload vs2-stream --seed 1 --seconds 30 --trace 0
//
// Inputs are synthesised from the seed before anything is timed. An
// untraced run (--trace 0) measures set-up, a closed loop, a fixed-rate
// open loop and query churn, cycling through them in four rounds, and
// reports the end-to-end metrics; a traced run (--trace 1) reports the
// per-layer metrics. Every run checks its outputs. The last line of
// standard output is one JSON object; the exit status is non-zero when an
// output check fails, the run is invalid or the workload cannot run. See
// README.md for the metrics and workloads.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type options struct {
	seed    int64
	seconds float64
	trace   bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"vs2-stream": func(o options) (*report, error) {
		return runDetector(o, detWorkload{name: "vs2-stream", rate: 2500})
	},
	// dense-plane runs by hand only; BENCHMARK.json does not register it
	// (README.md says why).
	"dense-plane": func(o options) (*report, error) {
		return runDetector(o, detWorkload{name: "dense-plane", dense: 1500, rate: 800})
	},
	"fleet-churn": runFleet,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same input bytes")
	seconds := fs.Float64("seconds", 20, "measured duration of the run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	rep, err := runner(options{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	switch {
	case rep.invalid != "":
		fmt.Fprintf(os.Stderr, "perfbench: %s: invalid run: %s\n", *name, rep.invalid)
		return 3
	case !rep.correct():
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed\n", *name)
		return 4
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
