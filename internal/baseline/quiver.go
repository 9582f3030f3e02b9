// Package baseline implements the systems the paper compares against:
//
//   - A Quiver-strategy baseline (Section 7.3): per-minibatch (non-bulk)
//     GPU sampling with the graph topology fully replicated on every
//     device, and cache-less feature fetching across all p ranks. A UVA
//     mode keeps the graph in host DRAM and samples across the PCIe
//     link with most features host-resident (Figure 5).
//   - The serial CPU LADIES reference implementation (Section 8.2.2),
//     used as the bar the distributed LADIES runs must clear.
//
// Both run under the same cost model as the paper's pipeline so the
// comparisons isolate strategy, not implementation accidents.
package baseline

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/pipeline"
)

// QuiverConfig drives the Quiver-strategy baseline.
type QuiverConfig struct {
	P int

	// UVA stores the graph in host DRAM and samples through the PCIe
	// link with a unified address space; 80% of the features live in
	// DRAM and 20% in a device cache (the split quoted in Section
	// 8.1.1).
	UVA bool

	Hidden     int
	Epochs     int
	LR         float64
	MaxBatches int
	Seed       int64
	Model      cluster.CostModel

	// Collectives selects the collective schedules the baseline's
	// cluster charges under (merged into Model.Collectives), so
	// algorithm comparisons hold the baseline to the same rules as the
	// paper's pipeline.
	Collectives cluster.Collectives

	// Topology selects the physical-link topology (set on
	// Model.Topology), holding the baseline to the same shared-link
	// contention rules as the paper's pipeline; nil keeps the pure α–β
	// model.
	Topology *cluster.Topology

	// Backend selects the simulator's execution backend (set on
	// Model.Backend): goroutines or the discrete-event loop. Results
	// are bit-identical either way; zero resolves $GNN_BACKEND, then
	// goroutines.
	Backend cluster.Backend

	// Faults is the fail-stop injection plan (merged into Model.Faults),
	// and CkptInterval the epoch-boundary checkpoint cadence, with the
	// same semantics as the paper pipeline's fields (pipeline.Config):
	// the baseline recovers from injected failures through the same
	// checkpoint/restore machinery, so resilience comparisons hold it to
	// the same rules.
	Faults       *cluster.FaultPlan
	CkptInterval int
}

// hostFeatureFraction is the share of feature rows served from host
// memory in UVA mode.
const hostFeatureFraction = 0.8

// RunQuiver simulates Quiver-style training: every rank samples its
// minibatches one at a time on device (paying per-batch kernel
// overheads the bulk approach amortizes) and fetches features with an
// all-to-allv across all p ranks (no replication-factor locality).
//
// The baseline runs through the paper pipeline's own driver
// (pipeline.RunStrategy), so it is held to the same rules: it is the
// Graph Replicated schedule with c=1 and one minibatch per rank per
// round (K=p), sequential (Quiver never prefetches), with per-minibatch
// sampling in place of the bulk sampler. It does not charge the
// optimizer step's memory traffic, an asymmetry the Quiver goldens pin.
func RunQuiver(d *datasets.Dataset, cfg QuiverConfig) (*pipeline.Result, error) {
	s := &pipeline.Strategy{
		NewSampler: func(*cluster.Grid) pipeline.SampleRound {
			return func(r *cluster.Rank, chunk [][]int, round int, seed int64) *core.BulkSample {
				if len(chunk) == 0 {
					return nil
				}
				// One bulk call of size one, paying full kernel-launch
				// overhead per batch per layer — the cost bulk sampling
				// amortizes.
				bulk := core.SampleBulk(core.SAGE{}, d.Graph.Adj, chunk, d.Fanouts, seed+int64(round))
				cost := bulk.Cost
				if cfg.UVA {
					// Graph lives in host DRAM: every adjacency row
					// visited crosses PCIe (16 bytes/entry), and the
					// irregular work runs at an effective rate bounded
					// by the host link.
					r.ChargeLink(cluster.HostLink, cost.ProbFlops*16)
					r.ChargeSparse(cost.SampleOps + cost.ExtractOps)
				} else {
					r.ChargeSparse(cost.Total())
				}
				r.ChargeKernels(cost.Kernels)
				return bulk
			}
		},
		SkipStepCharge: true,
	}
	if cfg.UVA {
		s.AfterFetch = func(r *cluster.Rank, verts []int) {
			hostRows := int(hostFeatureFraction * float64(len(verts)))
			r.ChargeLink(cluster.HostLink, int64(hostRows*d.Features.Cols*8))
		}
	}
	return pipeline.RunStrategy(d, pipeline.Config{
		P: cfg.P, C: 1, K: cfg.P,
		Hidden: cfg.Hidden, Epochs: cfg.Epochs, LR: cfg.LR,
		MaxBatches: cfg.MaxBatches, Seed: cfg.Seed, Model: cfg.Model,
		Collectives: cfg.Collectives, Topology: cfg.Topology, Backend: cfg.Backend,
		Faults: cfg.Faults, CkptInterval: cfg.CkptInterval,
	}, s)
}

// CPULadiesReference simulates the serial reference LADIES sampler
// (Section 8.2.2): one CPU process samples every minibatch one at a
// time. It returns the simulated seconds to sample all minibatches —
// the wall the distributed implementation is compared against (43.9 s
// for Papers, 3.12 s for Protein in the paper).
func CPULadiesReference(d *datasets.Dataset, layers int, maxBatches int, seed int64, model cluster.CostModel) (float64, error) {
	if model.GPUsPerNode == 0 {
		model = cluster.Perlmutter()
	}
	batches := d.Batches()
	total := len(batches)
	if maxBatches > 0 && maxBatches < total {
		batches = batches[:maxBatches]
	}
	scale := float64(total) / float64(len(batches))
	fanouts := make([]int, layers)
	for i := range fanouts {
		fanouts[i] = d.LayerWidth
	}

	cl := cluster.New(1, model)
	res, err := cl.Run(func(r *cluster.Rank) error {
		r.SetPhase("cpu-ladies")
		for i, b := range batches {
			bulk := core.SampleBulk(core.LADIES{}, d.Graph.Adj, [][]int{b}, fanouts, seed+int64(i))
			r.ChargeSparseOn(cluster.CPU, bulk.Cost.Total())
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return res.Phase("cpu-ladies") * scale, nil
}

// GraphBytes reports the in-memory size of a dataset's replicated
// state, used by the harness to pick the highest replication factor
// that "fits" (the paper chooses c and k per GPU memory).
func GraphBytes(d *datasets.Dataset) int64 {
	return int64(d.Graph.Adj.Bytes())
}

// FeatureBytes reports the feature matrix payload size.
func FeatureBytes(d *datasets.Dataset) int64 {
	return int64(d.Features.Bytes())
}
