package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/datasets"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

// shape is the generated input of one workload: an R-MAT graph plus the
// feature, label and batch layout of the repo's dataset presets.
type shape struct {
	name       string
	scale      int // 2^scale vertices
	edgeFactor int
	features   int
	batchSize  int
	numBatches int
	fanouts    []int
}

// products and protein are the two graph shapes the workloads draw on:
// Products-like is mid density, Protein-like the densest (Table 3).
var (
	productsSmall = shape{"products", 12, 27, 16, 64, 8, []int{10, 5, 3}}
	proteinSmall  = shape{"protein", 12, 60, 16, 64, 8, []int{10, 5, 3}}
	productsTiny  = shape{"products", 8, 8, 8, 16, 4, []int{5, 3}}
)

// numClasses matches the OGB-Products class count the dataset presets use.
const numClasses = 47

// generate builds the dataset from seed alone, the same way the repo's
// presets do (R-MAT A=0.57 B=C=0.19, minimum out-degree 3, Gaussian
// features, uniform labels, a 60/10/30 train/val/test cap).
func generate(s shape, seed int64) *datasets.Dataset {
	g := graph.RMAT(graph.RMATConfig{
		Scale: s.scale, EdgeFactor: s.edgeFactor,
		A: 0.57, B: 0.19, C: 0.19,
		Seed: seed,
	})
	g = graph.EnsureMinOutDegree(g, 3, seed+1)
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(seed + 2))
	feats := dense.New(n, s.features)
	for i := range feats.Data {
		feats.Data[i] = rng.NormFloat64()
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(numClasses)
	}
	perm := rng.Perm(n)
	train := s.numBatches * s.batchSize
	if train > n*6/10 {
		train = n * 6 / 10
	}
	val := n / 10
	return &datasets.Dataset{
		Name:       s.name,
		Graph:      g,
		Features:   feats,
		Labels:     labels,
		NumClasses: numClasses,
		Train:      perm[:train],
		Val:        perm[train : train+val],
		Test:       perm[train+val:],
		BatchSize:  s.batchSize,
		Fanouts:    s.fanouts,
	}
}

// workload is one benchmark input: a generated dataset and the run
// configuration the program is driven with.
type workload struct {
	name  string
	why   string // configuration and the reason the workload is in the benchmark
	shape shape
	// pipe configures pipeline.Run; nil for the Quiver workload.
	pipe func(seed int64) pipeline.Config
	// quiver configures baseline.RunQuiver; nil for pipeline workloads.
	quiver func(seed int64) baseline.QuiverConfig
	// failRank and failFrac place the recovery workload's fail-stop:
	// rank failRank dies at failFrac of the uninterrupted run's span.
	failRank int
	failFrac float64
}

var workloads = []*workload{
	{
		name:  "replicated-train",
		why:   "products-like 2^12 ef27, replicated SAGE P=16 C=4, 3 epochs, val + checkpoint every epoch: the paper's headline; sampling is communication-free, host time is compute",
		shape: productsSmall,
		pipe: func(seed int64) pipeline.Config {
			return pipeline.Config{P: 16, C: 4, K: pipeline.KAll, Epochs: 3,
				TrackVal: true, CkptInterval: 1, Seed: seed}
		},
	},
	{
		name:  "partitioned-train",
		why:   "protein-like 2^12 ef60, 1.5D partitioned P=16 C=2, overlap, degree cache 0.1, 2 epochs: sampling pays collectives and prefetch stalls; the only workload with the cache",
		shape: proteinSmall,
		pipe: func(seed int64) pipeline.Config {
			return pipeline.Config{P: 16, C: 2, K: pipeline.KAll, Epochs: 2,
				Algorithm: pipeline.GraphPartitioned, SparsityAware: true, Overlap: true,
				CachePolicy: cache.StaticDegree, CacheFrac: 0.1, Seed: seed}
		},
	},
	{
		name:  "scaleout-contended",
		why:   "products-like 2^8 ef8, replicated P=4096 C=8, oversubscribed x4, ring all-reduce, overlap, 2 epochs, DES backend: simulator overhead dominates (rendezvous, ledger, event loop, GC)",
		shape: productsTiny,
		// The only workload off the default backend: on the goroutine
		// backend a contended topology's sim_sec differs from run to run,
		// so every run would fail its checks. The DES backend is
		// deterministic here and still runs the rendezvous and the
		// contention ledger.
		pipe: func(seed int64) pipeline.Config {
			return pipeline.Config{P: 4096, C: 8, K: pipeline.KAll, Epochs: 2,
				Topology:    cluster.OversubscribedTopology(4),
				Collectives: cluster.Collectives{AllReduce: cluster.Ring},
				Overlap:     true, Backend: cluster.DESBackend, Seed: seed}
		},
	},
	{
		name:  "quiver-recovery",
		why:   "replicated-train's graph on Quiver UVA P=16, 3 epochs, checkpoint every epoch, rank 5 fails at 60% of the run: the baseline and restart path; the paper's Quiver comparison",
		shape: productsSmall,
		quiver: func(seed int64) baseline.QuiverConfig {
			return baseline.QuiverConfig{P: 16, UVA: true, Epochs: 3, CkptInterval: 1, Seed: seed}
		},
		failRank: 5,
		failFrac: 0.6,
	},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// backend returns the simulator backend the workload runs on.
func (w *workload) backend() cluster.Backend {
	if w.quiver != nil {
		return w.quiver(0).Backend.Resolve()
	}
	return w.pipe(0).Backend.Resolve()
}

// epochs returns the epoch count the workload configures.
func (w *workload) epochs(seed int64) int {
	if w.quiver != nil {
		return w.quiver(seed).Epochs
	}
	return w.pipe(seed).Epochs
}

// inputsPerSeed is how many inputs one invocation trains on, each
// generated from its own sub-seed of --seed. The program's scratch
// buffers grow by doubling, so bytes allocated and peak RSS jump between
// graphs of one shape; averaging every figure over a few inputs keeps an
// invocation's numbers from resting on which side of a doubling a
// single graph falls.
const inputsPerSeed = 3

// input is one generated dataset bound to its workload.
type input struct {
	w    *workload
	seed int64 // the sub-seed: generation and Config.Seed
	d    *datasets.Dataset
	// ref is the uninterrupted reference run the recovery workload's
	// failure time is derived from and its output is checked against.
	ref    *pipeline.Result
	failAt float64
	// first is the input's first run, which every checked run must
	// reproduce.
	first outcome
}

// generateInputs builds the invocation's inputs from seed alone.
func generateInputs(w *workload, seed int64) []*input {
	xs := make([]*input, inputsPerSeed)
	for j := range xs {
		sub := seed*inputsPerSeed + int64(j)
		xs[j] = &input{w: w, seed: sub, d: generate(w.shape, sub)}
	}
	return xs
}

// run executes one complete run of the workload on this input: every
// epoch plus the evaluation, checkpointing and recovery it configures.
func (x *input) run() (*pipeline.Result, error) {
	if x.w.quiver == nil {
		return pipeline.Run(x.d, x.w.pipe(x.seed))
	}
	cfg := x.w.quiver(x.seed)
	cfg.Faults = resilience.FailAt(x.w.failRank, x.failAt)
	return baseline.RunQuiver(x.d, cfg)
}

// runClean is the recovery workload's run without the injected failure:
// the uninterrupted reference.
func (x *input) runClean() (*pipeline.Result, error) {
	return baseline.RunQuiver(x.d, x.w.quiver(x.seed))
}

// placeFailure runs the recovery workload's uninterrupted reference and
// places the fail-stop inside it.
func (x *input) placeFailure() error {
	ref, err := x.runClean()
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	x.ref = ref
	x.failAt = x.w.failFrac * ref.Cluster.SimTime
	return nil
}

// outcome is what a run's output checks compare.
type outcome struct {
	simSec float64
	loss   float64
	digest uint64
	epochs int
	fired  int
}

func summarize(res *pipeline.Result) outcome {
	o := outcome{
		simSec: res.Cluster.SimTime,
		loss:   res.LastEpoch().Loss,
		digest: paramsDigest(res.Params),
		epochs: len(res.Epochs),
	}
	if res.Recovery != nil {
		o.fired = len(res.Recovery.Failures)
	}
	return o
}

// paramsDigest is an FNV-1a hash over the parameters' bit patterns, so
// any change in any trained weight changes it.
func paramsDigest(params []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range params {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p))
		h.Write(b[:])
	}
	return h.Sum64()
}

// check returns why a run's outcome is wrong, or "" when it passes:
// the loss must be finite, the epoch count right, and loss, params and
// sim_sec equal to the input's first run. The numbers are compared
// before the timing, so a changed result is reported as such even when
// the timing changed too. The recovery workload must also have fired
// its failure and match the uninterrupted reference run.
func (x *input) check(o outcome) string {
	first := x.first
	switch {
	case math.IsNaN(o.loss) || math.IsInf(o.loss, 0):
		return fmt.Sprintf("loss %v is not finite", o.loss)
	case o.epochs != x.w.epochs(x.seed):
		return fmt.Sprintf("%d epochs, want %d", o.epochs, x.w.epochs(x.seed))
	case o.loss != first.loss:
		return fmt.Sprintf("final loss %v differs from first run's %v", o.loss, first.loss)
	case o.digest != first.digest:
		return fmt.Sprintf("params digest %x differs from first run's %x", o.digest, first.digest)
	case o.simSec != first.simSec:
		return fmt.Sprintf("sim_sec %v differs from first run's %v", o.simSec, first.simSec)
	}
	if x.ref != nil {
		ref := summarize(x.ref)
		switch {
		case o.fired != 1:
			return fmt.Sprintf("%d injected failures fired, want 1", o.fired)
		case o.loss != ref.loss:
			return fmt.Sprintf("recovered loss %v differs from reference %v", o.loss, ref.loss)
		case o.digest != ref.digest:
			return fmt.Sprintf("recovered params digest %x differs from reference %x", o.digest, ref.digest)
		case o.simSec != ref.simSec:
			return fmt.Sprintf("recovered sim_sec %v differs from reference %v", o.simSec, ref.simSec)
		}
	}
	return ""
}
