package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/pipeline"
)

// minPasses is the fewest timed passes an untraced invocation makes,
// however short --seconds is. A pass runs every input once.
const minPasses = 2

// sample is one run's host-side cost and result; a pass's sample is the
// mean over its runs.
type sample struct {
	wall, cpu, allocMB float64
	gcCycles, gcPauseS float64
	simEpochS, loss    float64
	res                *pipeline.Result
	err                error
}

// timedRun makes one complete run from a collected heap and measures
// its wall time, user+sys CPU, bytes allocated and GC work.
func timedRun(x *input, run func() (*pipeline.Result, error)) sample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, _ := rusage()
	t0 := time.Now()
	res, err := safeRun(run)
	wall := time.Since(t0).Seconds()
	cpu1, _ := rusage()
	runtime.ReadMemStats(&m1)
	s := sample{
		wall:     wall,
		cpu:      cpu1 - cpu0,
		allocMB:  float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		gcCycles: float64(m1.NumGC - m0.NumGC),
		gcPauseS: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9,
		res:      res,
		err:      err,
	}
	if err == nil {
		s.simEpochS = res.Cluster.SimTime / float64(x.w.epochs(x.seed))
		s.loss = res.LastEpoch().Loss
	}
	return s
}

// average is the mean of the runs' figures; it keeps the first run's
// result.
func average(ss []sample) sample {
	var a sample
	for _, s := range ss {
		a.wall += s.wall
		a.cpu += s.cpu
		a.allocMB += s.allocMB
		a.gcCycles += s.gcCycles
		a.gcPauseS += s.gcPauseS
		a.simEpochS += s.simEpochS
		a.loss += s.loss
	}
	n := float64(len(ss))
	a.wall /= n
	a.cpu /= n
	a.allocMB /= n
	a.gcCycles /= n
	a.gcPauseS /= n
	a.simEpochS /= n
	a.loss /= n
	a.res = ss[0].res
	return a
}

// safeRun turns a panic on the calling goroutine into an error, so a
// crashing run is counted as failed rather than ending the benchmark.
func safeRun(fn func() (*pipeline.Result, error)) (res *pipeline.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// rusage returns the process's user+sys CPU seconds and its high-water
// resident set size in MB.
func rusage() (cpu, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// peakRSSRun makes one run the way a fresh process would, with the heap
// collected and its free pages returned to the OS, and returns the RSS
// high-water mark of that run alone. The kernel's mark is reset first;
// where it refuses, the reading is the process's. The timed runs do not
// return pages, because faulting them back in costs this much host time
// again, at a rate that varies from run to run.
func peakRSSRun(x *input, r *report) float64 {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	res, err := safeRun(x.run)
	_, rss := rusage()
	r.check(x, sample{res: res, err: err})
	return rss
}

// setup generates the invocation's inputs and warms up one of them, once
// per input: set-up j regenerates every input and makes input j's
// untimed warm-up run, after the recovery workload's reference run for
// it. Every set-up does the same work, so setup_s is their median; each
// warm-up run is its input's first run.
func setup(w *workload, seed int64, rec *recorder) ([]*input, []float64, error) {
	var inputs []*input
	var secs []float64
	for j := 0; j < inputsPerSeed; j++ {
		t0 := time.Now()
		var gen []*input
		rec.timed("generate", func() { gen = generateInputs(w, seed) })
		if inputs == nil {
			inputs = gen // every set-up generates identical inputs
		}
		x := inputs[j]
		var err error
		if w.quiver != nil {
			rec.timed("reference run", func() { err = x.placeFailure() })
			if err != nil {
				return nil, nil, fmt.Errorf("set-up: %w", err)
			}
		}
		var res *pipeline.Result
		rec.timed("warmup", func() { res, err = safeRun(x.run) })
		if err != nil {
			return nil, nil, fmt.Errorf("warm-up run: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		x.first = summarize(res)
	}
	return inputs, secs, nil
}

// check records one timed run against its input's checks.
func (r *report) check(x *input, s sample) {
	if s.err != nil {
		r.record(s.err.Error())
		return
	}
	r.record(x.check(summarize(s.res)))
}

// runFor makes timed passes until the budget is spent (at least atLeast),
// checking every run. It returns the mean of each pass whose runs all
// completed. With a recorder, each run is a span.
func runFor(inputs []*input, budget float64, atLeast int, r *report, rec *recorder) []sample {
	var passes []sample
	start := time.Now()
	for i := 0; i < atLeast || time.Since(start).Seconds() < budget; i++ {
		runs := make([]sample, len(inputs))
		complete := true
		for j, x := range inputs {
			rec.timed(fmt.Sprintf("run[%d][%d]", i, j), func() { runs[j] = timedRun(x, x.run) })
			r.check(x, runs[j])
			complete = complete && runs[j].err == nil
		}
		if complete {
			passes = append(passes, average(runs))
		}
	}
	return passes
}

// medianOf takes the median of one field over the passes.
func medianOf(ss []sample, field func(sample) float64) float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = field(s)
	}
	return median(vs)
}

// measure is the untraced invocation: set-up, then timed passes for the
// given seconds. Each metric is the median over complete passes of the
// pass's mean; a run that errors is counted as failed and its pass has
// no figures.
func measure(w *workload, seed int64, seconds float64) (*report, error) {
	inputs, setupSecs, err := setup(w, seed, nil)
	if err != nil {
		return nil, err
	}
	r := newReport()
	ok := runFor(inputs, seconds, minPasses, r, nil)
	if len(ok) == 0 {
		return nil, fmt.Errorf("no pass completed: %s", r.failures[0])
	}
	var rss float64
	for _, x := range inputs {
		rss += peakRSSRun(x, r) / float64(len(inputs))
	}
	perPass := fmt.Sprintf("median of %d passes over %d inputs", len(ok), len(inputs))
	set := func(name string, field func(sample) float64) {
		r.values[name], r.notes[name] = medianOf(ok, field), perPass
	}
	r.values["setup_s"], r.notes["setup_s"] = median(setupSecs), fmt.Sprintf("median of %d set-ups", len(setupSecs))
	set("run_wall_s", func(s sample) float64 { return s.wall })
	set("cpu_s", func(s sample) float64 { return s.cpu })
	set("alloc_mb", func(s sample) float64 { return s.allocMB })
	r.values["peak_rss_mb"], r.notes["peak_rss_mb"] = rss, fmt.Sprintf("mean of %d fresh-heap runs", len(inputs))
	set("sim_epoch_s", func(s sample) float64 { return s.simEpochS })
	set("final_loss", func(s sample) float64 { return s.loss })
	return r, nil
}

// tracedOutputs is where a traced invocation writes its spans and CPU
// profile, relative to the directory it runs in.
func tracedOutputs(w *workload, seed int64) (spans, profile string) {
	id := fmt.Sprintf("%s-seed%d", w.name, seed)
	return filepath.Join(".bench_build", "spans", id+".json"), filepath.Join(".bench_build", "profiles", id+".pb.gz")
}

// traced is the separate traced invocation: untraced passes for a wall
// baseline, then passes under spans and the CPU profile, then the layer
// pass on the first input. The spans and the profile are written under
// .bench_build at the end.
func traced(w *workload, seed int64, seconds float64) (*report, error) {
	spansPath, profPath := tracedOutputs(w, seed)
	rec := newRecorder(fmt.Sprintf("%s-seed%d", w.name, seed))
	rec.start("setup")
	inputs, _, err := setup(w, seed, rec)
	rec.end()
	if err != nil {
		return nil, err
	}
	r := newReport()
	plain := runFor(inputs, seconds*0.25, 1, r, nil)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	rec.start("traced runs")
	tracedPasses := runFor(inputs, seconds*0.35, 1, r, rec)
	rec.end()
	pprof.StopCPUProfile()
	if len(plain) == 0 || len(tracedPasses) == 0 {
		return nil, fmt.Errorf("no pass completed: %s", r.failures[0])
	}
	if err := os.MkdirAll(filepath.Dir(profPath), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	p, err := readCPUProfile(profPath)
	if err != nil {
		return nil, err
	}
	runs := float64(len(tracedPasses) * len(inputs))
	folded := p.fold()
	other := folded["profile"]
	for _, pkg := range []string{"core", "sparse", "dense", "gnn", "distsample", "pipeline",
		"cluster", "sim", "engine", "baseline", "runtime"} {
		r.values[pkg+".self_cpu_s"] = folded[pkg] / runs
		other -= folded[pkg]
	}
	// The rest (the standard library, the benchmark itself and the
	// program's other packages), so the split adds up to profile.cpu_s.
	r.values["other.self_cpu_s"] = other / runs
	r.values["runtime.gc_self_cpu_s"] = folded["runtime.gc"] / runs
	r.values["runtime.sched_self_cpu_s"] = folded["runtime.sched"] / runs
	r.values["profile.cpu_s"] = folded["profile"] / runs
	r.values["runtime.gc_cycles"] = medianOf(tracedPasses, func(s sample) float64 { return s.gcCycles })
	r.values["runtime.gc_pause_s"] = medianOf(tracedPasses, func(s sample) float64 { return s.gcPauseS })

	plainWall := medianOf(plain, func(s sample) float64 { return s.wall })
	r.values["trace_overhead_s"] = medianOf(tracedPasses, func(s sample) float64 { return s.wall }) - plainWall
	simAccounting(r, tracedPasses[len(tracedPasses)-1].res)

	r.values["resilience.recovery_wall_s"] = 0
	if w.quiver != nil {
		var clean []sample
		for _, x := range inputs {
			var s sample
			rec.timed("reference run", func() { s = timedRun(x, x.runClean) })
			if s.err != nil {
				return nil, fmt.Errorf("reference run: %w", s.err)
			}
			clean = append(clean, s)
		}
		r.values["resilience.recovery_wall_s"] = plainWall - average(clean).wall
	}

	rec.start("layers")
	layers, err := layerPass(rec, inputs[0])
	rec.end()
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		r.values[k] = v
	}
	if err := rec.write(spansPath); err != nil {
		return nil, err
	}
	return r, nil
}

// simAccounting reads the simulated per-layer numbers from a run's
// Result: per-epoch phase seconds, whole-run collective calls and wire
// bytes, the contention ledger's peak and the recovery bookkeeping.
func simAccounting(r *report, res *pipeline.Result) {
	ep := res.LastEpoch()
	r.values["pipeline.sampling_sim_s"] = ep.Sampling
	r.values["pipeline.sampling_comm_sim_s"] = ep.SamplingComm
	r.values["pipeline.fetch_sim_s"] = ep.FeatureFetch
	r.values["pipeline.fetch_comm_sim_s"] = ep.FetchComm
	r.values["pipeline.propagation_sim_s"] = ep.Propagation
	r.values["engine.stall_sim_s"] = ep.Stall
	var calls int64
	for _, st := range res.Cluster.Ranks {
		for _, c := range st.OpCount {
			calls += c
		}
	}
	r.values["cluster.collective_calls"] = float64(calls)
	traffic := res.Cluster.LinkTraffic()
	r.values["cluster.bytes_intra"] = float64(traffic[0])
	r.values["cluster.bytes_inter"] = float64(traffic[1])
	r.values["cluster.bytes_host"] = float64(traffic[2])
	r.values["cluster.ledger_peak_spans"] = float64(res.Cluster.LedgerPeakSpans)
	r.values["resilience.attempts"], r.values["resilience.wasted_sim_s"] = 0, 0
	if rc := res.Recovery; rc != nil {
		r.values["resilience.attempts"] = float64(rc.Attempts)
		r.values["resilience.wasted_sim_s"] = rc.WastedSim
	}
}
