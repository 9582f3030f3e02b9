package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

// shrink swaps the workload table for reduced-size copies of every
// workload for the duration of the test: a 2^7-vertex graph with two
// batches, and at most 64 simulated ranks.
func shrink(t *testing.T) {
	t.Helper()
	full := workloads
	t.Cleanup(func() { workloads = full })
	workloads = nil
	for _, w := range full {
		small := *w
		small.shape = shape{w.shape.name, 7, w.shape.edgeFactor, 4, 8, 2, []int{3, 2}}
		if w.pipe != nil {
			pipe := w.pipe
			small.pipe = func(seed int64) pipeline.Config {
				cfg := pipe(seed)
				if cfg.P > 64 {
					cfg.P = 64
				}
				return cfg
			}
		}
		workloads = append(workloads, &small)
	}
}

type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json, the workload
// table and the metric catalogue in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q/%q, table has %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, catalogue %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better || m.Bound != c.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalogue %+v", i, m, c)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, catalogue %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		c := perLayer[i]
		if m.Name != c.name || m.Unit != c.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalogue %+v", i, m, c)
		}
		if c.moves == "" || c.on == "" {
			t.Errorf("per-layer %s does not say what it should move where", c.name)
		}
	}
}

// TestSmokeEveryWorkload runs each workload at reduced size through
// the command's entry point in both modes and checks that every metric
// BENCHMARK.json names is printed with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	shrink(t)
	bj := loadBenchmarkJSON(t)
	t.Chdir(t.TempDir()) // the traced run writes under ./.bench_build
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0.01", "--trace", trace}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", w.name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", w.name, trace, err)
			}
			if res.Attempted < inputsPerSeed {
				t.Errorf("%s trace=%s: attempted %d < %d", w.name, trace, res.Attempted, inputsPerSeed)
			}
			if !res.Correct {
				t.Errorf("%s trace=%s: %d/%d runs failed:\n%s", w.name, trace, res.Failed, res.Attempted, out.String())
			}
			want := map[string]string{}
			if trace == "0" {
				for _, m := range bj.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bj.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: printed %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%s: metric %s printed as %+v, want unit %q", w.name, trace, name, got, unit)
				}
				if !strings.Contains(out.String(), "# "+name+" ") {
					t.Errorf("%s trace=%s: no human-readable line for %s", w.name, trace, name)
				}
			}
		}
	}
}

// TestTracedRunSplitsWork checks the traced run's per-module numbers
// on the reduced workloads: checkpoint metrics appear only where
// checkpointing is configured, the profile fold finds the program's
// packages, and the spans file holds one trace.
func TestTracedRunSplitsWork(t *testing.T) {
	shrink(t)
	t.Chdir(t.TempDir())
	for _, w := range workloads {
		rep, err := traced(w, 5, 0.01)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		ckpt := w.name == "replicated-train" || w.name == "quiver-recovery"
		for _, name := range []string{"graphio.ckpt_write_s", "graphio.ckpt_read_s", "graphio.ckpt_bytes", "resilience.attempts"} {
			if got := rep.values[name] != 0; got != ckpt {
				t.Errorf("%s: %s = %v, want non-zero only with checkpointing", w.name, name, rep.values[name])
			}
		}
		if w.quiver != nil && (rep.values["resilience.attempts"] != 2 || rep.values["resilience.wasted_sim_s"] <= 0) {
			t.Errorf("%s: recovery accounting %v attempts, %v wasted", w.name, rep.values["resilience.attempts"], rep.values["resilience.wasted_sim_s"])
		}
		if rep.values["profile.cpu_s"] <= 0 {
			t.Errorf("%s: CPU profile folded to nothing", w.name)
		}
		var split float64
		for _, pkg := range []string{"core", "sparse", "dense", "gnn", "distsample", "pipeline",
			"cluster", "sim", "engine", "baseline", "runtime", "other"} {
			split += rep.values[pkg+".self_cpu_s"]
		}
		if d := math.Abs(split - rep.values["profile.cpu_s"]); d > 1e-9 {
			t.Errorf("%s: self-CPU split sums to %v, profile to %v", w.name, split, rep.values["profile.cpu_s"])
		}
		spans, _ := tracedOutputs(w, 5)
		b, err := os.ReadFile(spans)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceID string `json:"trace_id"`
			Spans   []span `json:"spans"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for i, s := range doc.Spans {
			names[s.Name] = true
			if s.TraceID != doc.TraceID || s.ID != i+1 || s.Parent >= s.ID || s.EndNS < s.StartNS {
				t.Errorf("%s: malformed span %+v", w.name, s)
			}
		}
		for _, n := range []string{"setup", "warmup", "traced runs", "layers", "graph.RMAT", "core.SampleBulk",
			"sparse.SpGEMM", "gnn.Forward", "pipeline.FetchCached", "cluster.AllReduceSumApply"} {
			if !names[n] {
				t.Errorf("%s: no %q span", w.name, n)
			}
		}
	}
}

// TestCorruptedOutputCountsAsFailed feeds the output checks runs whose
// digest, loss or recovery differs from the reference and expects each
// to be counted in the failed fraction.
func TestCorruptedOutputCountsAsFailed(t *testing.T) {
	shrink(t)
	w, err := lookup("replicated-train")
	if err != nil {
		t.Fatal(err)
	}
	x := generateInputs(w, 7)[0]
	res, err := x.run()
	if err != nil {
		t.Fatal(err)
	}
	x.first = summarize(res)

	r := newReport()
	r.check(x, sample{res: res})
	if len(r.failures) != 0 {
		t.Fatalf("unchanged run failed: %v", r.failures)
	}

	corrupt := func(mut func(p *pipeline.Result)) *pipeline.Result {
		c := *res
		c.Params = append([]float64(nil), res.Params...)
		c.Epochs = append([]pipeline.EpochStats(nil), res.Epochs...)
		mut(&c)
		return &c
	}
	for _, bad := range []*pipeline.Result{
		corrupt(func(p *pipeline.Result) { p.Params[0] = math.Nextafter(p.Params[0], 1) }),
		corrupt(func(p *pipeline.Result) { p.Epochs[len(p.Epochs)-1].Loss += 1e-12 }),
		corrupt(func(p *pipeline.Result) { p.Epochs[len(p.Epochs)-1].Loss = math.NaN() }),
		corrupt(func(p *pipeline.Result) { p.Epochs = p.Epochs[:1] }),
	} {
		r.check(x, sample{res: bad})
	}
	r.check(x, sample{err: os.ErrDeadlineExceeded})
	out, err := r.result(nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Attempted != 6 || out.Failed != 5 {
		t.Errorf("got correct=%v %d/%d failed, want 5/6 failed", out.Correct, out.Failed, out.Attempted)
	}

	// The recovery workload must also fire its failure and equal the
	// uninterrupted reference.
	q, err := lookup("quiver-recovery")
	if err != nil {
		t.Fatal(err)
	}
	qx := generateInputs(q, 7)[0]
	if err := qx.placeFailure(); err != nil {
		t.Fatal(err)
	}
	rec, err := qx.run()
	if err != nil {
		t.Fatal(err)
	}
	qx.first = summarize(rec)
	if why := qx.check(qx.first); why != "" {
		t.Fatalf("recovered run fails its checks: %s", why)
	}
	qx.first = summarize(qx.ref)
	if why := qx.check(qx.first); why == "" {
		t.Error("a run whose failure never fired passed the recovery check")
	}
}

// TestParseTraces folds a fixed `go tool pprof -traces -unit=ns` text:
// leaves in internal/runtime count as runtime, GC and scheduling shares
// come from the stack, and other packages land only in the total.
func TestParseTraces(t *testing.T) {
	out := `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
  20000000ns   repro/internal/cluster.(*Comm).rendezvous
             repro/internal/cluster.AllReduceSumApply
-----------+-------------------------------------------------------
  10000000ns   internal/runtime/maps.(*Map).getWithKeySmall (inline)
             runtime.mapaccess1
             repro/internal/cluster.(*Ledger).commit
-----------+-------------------------------------------------------
  30000000ns   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
   5000000ns   sync.(*Mutex).lockSlow
             repro/internal/cluster.(*Ledger).commit
-----------+-------------------------------------------------------
`
	p, err := parseTraces([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	got := p.fold()
	want := map[string]float64{"profile": 0.065, "cluster": 0.02, "runtime": 0.04, "runtime.gc": 0.03}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("fold[%s] = %v, want %v", k, got[k], v)
		}
	}
}
