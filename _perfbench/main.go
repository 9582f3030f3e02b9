// Command perfbench is the repository's end-to-end benchmark. It
// generates one of four seeded workloads, drives the simulator through
// its public entry points (pipeline.Run, baseline.RunQuiver), checks
// every run's output, and prints one JSON result line.
//
//	go run . --workload replicated-train --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing and profiling
// off; --trace 1 makes the separate traced run that gives the per-layer
// metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"

	"repro/internal/cluster"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for the generated input and Config.Seed")
	seconds := fs.Float64("seconds", 10, "seconds of timed runs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := checkEnv(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0 and --trace 0 or 1")
		return 2
	}

	fmt.Fprintf(stdout, "# env: default backend=%s workload backend=%s GOMAXPROCS=%d nproc=%d go=%s\n",
		cluster.DefaultBackend.Resolve(), w.backend(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	fmt.Fprintf(stdout, "# workload %s seed=%d: %s\n", w.name, *seed, w.why)

	var rep *report
	if *trace == 0 {
		rep, err = measure(w, *seed, *seconds)
	} else {
		rep, err = traced(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	catalogue := endToEnd
	if *trace == 1 {
		catalogue = perLayer
	}
	res, err := rep.result(catalogue)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout, catalogue)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// checkEnv refuses settings that would change what is measured: the
// backend must be the program's default, and all load comes from this
// one process with no more scheduler threads than CPUs.
func checkEnv() error {
	if v, ok := os.LookupEnv(cluster.BackendEnv); ok {
		return fmt.Errorf("%s=%q is set; unset it so the program's default backend runs", cluster.BackendEnv, v)
	}
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		return fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d", p, n)
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// report is one invocation's measurements and check results.
type report struct {
	attempted int
	failures  []string // one reason per failed run
	values    map[string]float64
	notes     map[string]string // how each end-to-end value was taken
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}}
}

// record counts one checked run.
func (r *report) record(reason string) {
	r.attempted++
	if reason != "" {
		r.failures = append(r.failures, reason)
	}
}

// result builds the JSON line; every catalogue metric must have been
// measured and be a finite number.
func (r *report) result(catalogue []metric) (*result, error) {
	if r.attempted == 0 {
		return nil, errors.New("no run attempted")
	}
	res := &result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    len(r.failures),
		Metrics:   map[string]metricValue{},
	}
	for _, m := range catalogue {
		v, ok := r.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res, nil
}

// print writes one human-readable line per metric, failures first.
func (r *report) print(w io.Writer, catalogue []metric) {
	for i, f := range r.failures {
		if i == 5 {
			fmt.Fprintf(w, "# ... %d more failed runs\n", len(r.failures)-i)
			break
		}
		fmt.Fprintf(w, "# failed run: %s\n", f)
	}
	fmt.Fprintf(w, "# failed_frac %d/%d = %.4f\n", len(r.failures), r.attempted, float64(len(r.failures))/float64(r.attempted))
	for _, m := range catalogue {
		line := fmt.Sprintf("# %-34s %-14.6g %-6s", m.name, r.values[m.name], m.unit)
		if n := r.notes[m.name]; n != "" {
			line += " " + n
		}
		if m.moves != "" {
			line += fmt.Sprintf("  moves %s on %s", m.moves, m.on)
		}
		fmt.Fprintln(w, line)
	}
}
