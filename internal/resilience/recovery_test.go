package resilience_test

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/datasets"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

// recoveryDataset is the same tiny SBM instance the backend
// differential sweep uses: large enough to exercise every phase,
// small enough that a trial (clean run + failed run + restarts, on
// both backends) stays in the low milliseconds.
func recoveryDataset() *datasets.Dataset {
	return datasets.SBM(datasets.SBMConfig{
		N: 128, Classes: 4, Features: 4,
		IntraDeg: 6, InterDeg: 2, Noise: 0.5,
		BatchSize: 16, Fanouts: []int{3, 2}, LayerWidth: 8, Seed: 11,
	})
}

// TestDifferentialCrashRecovery is the headline suite for the
// resilience subsystem: across randomized (seed, fail-rank, fail-time,
// checkpoint-interval) trials, a run that loses a rank mid-training
// and restarts — from its latest checkpoint when one exists, from
// scratch otherwise — must finish with a Result bit-identical to the
// same configuration run without any failure. "Bit-identical" is the
// full Result surface the backend differential pins: per-epoch stats,
// trained parameters (float-for-float), effective bulk, and the
// complete simulated-time cluster accounting. Both backends, all three
// training strategies: every trial runs one paper-pipeline config
// (replicated or 1.5D partitioned) and one Quiver-baseline config.
//
// Every trial also runs a paper-pipeline config with the static
// degree cache: its residency is a pure function of the graph, so a
// restart rebuilds exactly what the failed attempt had. Topology stays
// nil and the LRU cache stays out: the contention ledger and LRU
// residency are deliberately not part of a checkpoint (a real restart
// re-warms its caches), so exact recovery is only promised without
// them — the same topology scope as cross-backend bit-identity.
func TestDifferentialCrashRecovery(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 12
	}
	// GNN_RECOVERY_TRIALS overrides the sweep size, mirroring
	// GNN_DIFFERENTIAL_TRIALS: CI's race job runs a reduced sweep.
	if s := os.Getenv("GNN_RECOVERY_TRIALS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad GNN_RECOVERY_TRIALS %q: want a positive integer", s)
		}
		trials = n
	}
	d := recoveryDataset()
	tables := []cluster.Collectives{
		{},
		{AllReduce: cluster.Ring, AllToAll: cluster.Pairwise},
		{AllReduce: cluster.Hierarchical},
	}
	rng := rand.New(rand.NewSource(20250613))
	// The Quiver trials draw from their own stream, so adding them left
	// the pipeline trials' draws unchanged.
	qrng := rand.New(rand.NewSource(20261017))
	// The static-cache trials likewise draw from a third stream.
	srng := rand.New(rand.NewSource(20261018))

	// differential runs one configuration clean and with a failure plan
	// drawn inside the clean run's simulated span, and reports whether
	// the plan fired. Mostly single failures (the spec's trial shape),
	// with an occasional two-failure plan to force chained restarts.
	differential := func(name string, trial, p, ckptInterval int, rng *rand.Rand,
		run func(faults *cluster.FaultPlan) *pipeline.Result) bool {
		t.Helper()
		clean := run(nil)
		if clean.Recovery != nil && clean.Recovery.Attempts != 1 {
			t.Fatalf("trial %d %s: unfailed run took %d attempts", trial, name, clean.Recovery.Attempts)
		}
		nFail := 1
		if trial%7 == 0 {
			nFail = 2
		}
		plan := resilience.RandomPlan(rng.Int63(), p, nFail,
			clean.Cluster.SimTime*0.05, clean.Cluster.SimTime*0.75)
		failed := run(plan)

		rec := failed.Recovery
		if rec == nil {
			t.Fatalf("trial %d %s: failed run reported no recovery stats", trial, name)
		}
		if rec.Attempts >= 2 {
			if len(rec.Failures) != rec.Attempts-1 || len(rec.RestartEpochs) != rec.Attempts-1 {
				t.Fatalf("trial %d %s: recovery stats inconsistent: %+v", trial, name, rec)
			}
			if ckptInterval == 0 {
				for _, e := range rec.RestartEpochs {
					if e != 0 {
						t.Fatalf("trial %d %s: restarted from epoch %d with no checkpoints", trial, name, e)
					}
				}
			}
		}
		if !reflect.DeepEqual(clean.Epochs, failed.Epochs) {
			t.Fatalf("trial %d %s %+v: epoch stats diverge after recovery\nclean:  %+v\nfailed: %+v",
				trial, name, plan, clean.Epochs, failed.Epochs)
		}
		if !reflect.DeepEqual(clean.Params, failed.Params) {
			t.Fatalf("trial %d %s %+v: trained parameters diverge after recovery", trial, name, plan)
		}
		if clean.EffectiveK != failed.EffectiveK {
			t.Fatalf("trial %d %s: EffectiveK %d vs %d", trial, name, clean.EffectiveK, failed.EffectiveK)
		}
		if !reflect.DeepEqual(clean.Cluster, failed.Cluster) {
			t.Fatalf("trial %d %s %+v: cluster accounting diverges after recovery\nclean:  %+v\nfailed: %+v",
				trial, name, plan, clean.Cluster, failed.Cluster)
		}
		return rec.Attempts >= 2
	}

	// drawConfig draws one random paper-pipeline configuration.
	drawConfig := func(rng *rand.Rand) pipeline.Config {
		ps := []int{2, 4, 8}
		cfg := pipeline.Config{
			P:           ps[rng.Intn(len(ps))],
			Epochs:      2 + rng.Intn(2),
			Seed:        rng.Int63n(1 << 20),
			MaxBatches:  1 + rng.Intn(2),
			K:           rng.Intn(5), // 0 = KAll
			Collectives: tables[rng.Intn(len(tables))],
			// 0 = no checkpoints (restart from scratch); otherwise a
			// boundary every 1 or 2 epochs.
			CkptInterval: rng.Intn(3),
		}
		divs := []int{1}
		for c := 2; c <= cfg.P; c++ {
			if cfg.P%c == 0 {
				divs = append(divs, c)
			}
		}
		cfg.C = divs[rng.Intn(len(divs))]
		if rng.Intn(2) == 1 && cfg.C > 1 && cfg.P%(cfg.C*cfg.C) == 0 {
			cfg.Algorithm = pipeline.GraphPartitioned
			cfg.SparsityAware = rng.Intn(2) == 1
		} else {
			cfg.Overlap = rng.Intn(2) == 1
		}
		return cfg
	}

	runPipeline := func(cfg pipeline.Config, be cluster.Backend) func(*cluster.FaultPlan) *pipeline.Result {
		return func(faults *cluster.FaultPlan) *pipeline.Result {
			c := cfg
			c.Backend, c.Faults = be, faults
			res, err := pipeline.Run(d, c)
			if err != nil {
				t.Fatalf("%+v backend=%v: %v", c, be, err)
			}
			return res
		}
	}

	fired, qfired, sfired := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		cfg := drawConfig(rng)
		scfg := drawConfig(srng)
		scfg.CachePolicy = cache.StaticDegree
		scfg.CacheFrac = 0.05 + 0.45*srng.Float64()

		qps := []int{1, 2, 3, 4, 8}
		qcfg := baseline.QuiverConfig{
			P:            qps[qrng.Intn(len(qps))],
			UVA:          qrng.Intn(2) == 1,
			Epochs:       2 + qrng.Intn(2),
			Seed:         qrng.Int63n(1 << 20),
			MaxBatches:   qrng.Intn(4), // 0 = every batch
			Collectives:  tables[qrng.Intn(len(tables))],
			CkptInterval: qrng.Intn(3),
		}

		for _, be := range []cluster.Backend{cluster.GoroutineBackend, cluster.DESBackend} {
			if differential(fmt.Sprintf("backend=%v %+v", be, cfg), trial, cfg.P, cfg.CkptInterval, rng,
				runPipeline(cfg, be)) {
				fired++
			}
			if differential(fmt.Sprintf("backend=%v static cache %+v", be, scfg), trial, scfg.P, scfg.CkptInterval, srng,
				runPipeline(scfg, be)) {
				sfired++
			}
			if differential(fmt.Sprintf("backend=%v quiver %+v", be, qcfg), trial, qcfg.P, qcfg.CkptInterval, qrng,
				func(faults *cluster.FaultPlan) *pipeline.Result {
					c := qcfg
					c.Backend, c.Faults = be, faults
					res, err := baseline.RunQuiver(d, c)
					if err != nil {
						t.Fatalf("quiver %+v backend=%v: %v", c, be, err)
					}
					return res
				}) {
				qfired++
			}
		}
	}
	// The window [5%, 75%] of the clean simulated span should make the
	// vast majority of injected failures fire; if almost none did, the
	// suite is silently testing nothing.
	if fired < trials || qfired < trials || sfired < trials {
		t.Fatalf("only %d (pipeline), %d (quiver) and %d (static cache) of %d trial-backend runs each actually fired a failure; the injection window is wrong",
			fired, qfired, sfired, 2*trials)
	}
	t.Logf("%d (pipeline), %d (quiver) and %d (static cache) of %d trial-backend runs each fired at least one failure",
		fired, qfired, sfired, 2*trials)
}

// TestRecoveryFromScratchDeterministic pins the no-checkpoint restart
// path explicitly on a fixed config: with CkptInterval 0 a mid-run
// failure throws away everything, and the rebuilt-from-scratch second
// attempt must still reproduce the unfailed run exactly (fresh model,
// fresh optimizer, fresh cluster — no state leaks across attempts).
func TestRecoveryFromScratchDeterministic(t *testing.T) {
	d := recoveryDataset()
	cfg := pipeline.Config{P: 4, Epochs: 2, Seed: 7, MaxBatches: 2}
	clean, err := pipeline.Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = resilience.FailAt(2, clean.Cluster.SimTime/2)
	failed, err := pipeline.Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if failed.Recovery == nil || failed.Recovery.Attempts != 2 {
		t.Fatalf("recovery = %+v, want exactly 2 attempts", failed.Recovery)
	}
	if failed.Recovery.WastedSim <= 0 {
		t.Fatalf("WastedSim = %v, want > 0 for a from-scratch restart", failed.Recovery.WastedSim)
	}
	if !reflect.DeepEqual(clean.Params, failed.Params) || !reflect.DeepEqual(clean.Cluster, failed.Cluster) {
		t.Fatal("from-scratch recovery is not bit-identical to the unfailed run")
	}
}

// TestCheckpointShortensRecovery pins the point of checkpointing: with
// an every-epoch checkpoint interval, a late failure resumes from a
// late epoch and wastes less simulated work than the same failure with
// no checkpoints.
func TestCheckpointShortensRecovery(t *testing.T) {
	d := recoveryDataset()
	base := pipeline.Config{P: 4, Epochs: 4, Seed: 3, MaxBatches: 2}
	clean, err := pipeline.Run(d, base)
	if err != nil {
		t.Fatal(err)
	}
	failAt := clean.Cluster.SimTime * 0.9

	scratch := base
	scratch.Faults = resilience.FailAt(1, failAt)
	sres, err := pipeline.Run(d, scratch)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := base
	ckpt.CkptInterval = 1
	ckptClean, err := pipeline.Run(d, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	ckpt.Faults = resilience.FailAt(1, ckptClean.Cluster.SimTime*0.9)
	cres, err := pipeline.Run(d, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Recovery.Attempts != 2 || cres.Recovery.Attempts != 2 {
		t.Fatalf("attempts scratch=%+v ckpt=%+v, want 2 and 2", sres.Recovery, cres.Recovery)
	}
	if got := cres.Recovery.RestartEpochs[0]; got < 1 {
		t.Fatalf("checkpointed run restarted from epoch %d, want a later boundary", got)
	}
	if cres.Recovery.WastedSim >= sres.Recovery.WastedSim {
		t.Fatalf("checkpointing did not reduce wasted work: %v (ckpt) vs %v (scratch)",
			cres.Recovery.WastedSim, sres.Recovery.WastedSim)
	}
	if !reflect.DeepEqual(ckptClean.Params, cres.Params) || !reflect.DeepEqual(ckptClean.Cluster, cres.Cluster) {
		t.Fatal("checkpointed recovery is not bit-identical to its unfailed twin")
	}
}
