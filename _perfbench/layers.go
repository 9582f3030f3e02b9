package main

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dense"
	"repro/internal/distsample"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/pipeline"
	"repro/internal/resilience"
	"repro/internal/sparse"
)

// layerReps is how many times the layer pass repeats; each host-time
// layer metric is the median over the repeats.
const layerReps = 3

// collectiveCalls is how many back-to-back collectives one cluster run
// of the collective layer issues per rank; the metric is per call.
const collectiveCalls = 4

// runShape is the part of a workload's configuration the layer pass
// reproduces outside the pipeline.
type runShape struct {
	p, c      int
	hidden    int
	model     cluster.CostModel
	policy    cache.Policy
	cacheFrac float64
	ckpt      bool
}

func (x *input) runShape() runShape {
	var rs runShape
	var colls cluster.Collectives
	var topo *cluster.Topology
	if x.w.quiver != nil {
		q := x.w.quiver(x.seed)
		rs.p, rs.c, rs.hidden, rs.ckpt = q.P, 1, q.Hidden, q.CkptInterval > 0
		colls, topo = q.Collectives, q.Topology
	} else {
		cfg := x.w.pipe(x.seed)
		rs.p, rs.c, rs.hidden, rs.ckpt = cfg.P, cfg.C, cfg.Hidden, cfg.CkptInterval > 0
		rs.policy, rs.cacheFrac = cfg.CachePolicy, cfg.CacheFrac
		colls, topo = cfg.Collectives, cfg.Topology
	}
	// The same defaults pipeline.Run and baseline.RunQuiver apply.
	if rs.c <= 0 {
		rs.c = 1
	}
	if rs.hidden == 0 {
		rs.hidden = 64
	}
	rs.model = cluster.Perlmutter()
	rs.model.Collectives = rs.model.Collectives.Merge(colls)
	rs.model.Topology = topo
	rs.model.Backend = x.w.backend()
	return rs
}

// layerPass times public calls into each module on one of the
// workload's real inputs, one span per call, and returns the median of
// each host-time metric over layerReps repeats plus the work counts.
func layerPass(rec *recorder, x *input) (map[string]float64, error) {
	samples := map[string][]float64{}
	var out map[string]float64
	for rep := 0; rep < layerReps; rep++ {
		rec.start(fmt.Sprintf("layers[%d]", rep))
		m, err := layerOnce(rec, x)
		rec.end()
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			samples[k] = append(samples[k], v)
		}
		out = m
	}
	for k, vs := range samples {
		out[k] = median(vs)
	}
	return out, nil
}

func layerOnce(rec *recorder, x *input) (map[string]float64, error) {
	m := map[string]float64{}
	rs := x.runShape()
	d := x.d
	s := x.w.shape
	adj := d.Graph.Adj
	batches := d.Batches()

	// graph: the generator behind every workload's set-up.
	var g *graph.Graph
	m["graph.rmat_s"] = rec.timed("graph.RMAT", func() {
		g = graph.RMAT(graph.RMATConfig{Scale: s.scale, EdgeFactor: s.edgeFactor,
			A: 0.57, B: 0.19, C: 0.19, Seed: x.seed})
	})
	m["graph.edges"] = float64(g.NumEdges())

	// core: one bulk GraphSAGE call over the whole epoch's batches.
	var bulk *core.BulkSample
	m["core.sample_bulk_s"] = rec.timed("core.SampleBulk", func() {
		bulk = core.SampleBulk(core.SAGE{}, adj, batches, s.fanouts, x.seed)
	})
	edges := 0
	for _, ls := range bulk.Layers {
		edges += ls.Adj.NNZ()
	}
	m["core.sampled_edges"] = float64(edges)

	// sparse: the first-hop probability product P = Q·A.
	q := core.SAGE{}.BuildQ(core.NewFrontier(batches), adj.Cols)
	var flops int64
	m["sparse.spgemm_s"] = rec.timed("sparse.SpGEMM", func() {
		_, flops = sparse.SpGEMM(q, adj)
	})
	m["sparse.spgemm_flops"] = float64(flops)

	// distsample: 1.5D partitioned bulk sampling on a P=16, C=2 grid.
	var sampErr error
	m["distsample.sample_partitioned_s"] = rec.timed("distsample.SampleSAGEPartitioned", func() {
		cl := cluster.New(16, cluster.Perlmutter())
		grid := cluster.NewGrid(cl, 16, 2)
		parts := distsample.NewPartitionedSet(grid, adj, true)
		_, sampErr = cl.Run(func(r *cluster.Rank) error {
			distsample.SampleSAGEPartitioned(r, parts[r.ID], distsample.LocalBatches(grid, r.ID, batches), s.fanouts, x.seed)
			return nil
		})
	})
	if sampErr != nil {
		return nil, fmt.Errorf("layer distsample: %w", sampErr)
	}

	// gnn + dense: forward, loss, backward and one Adam step per batch
	// of the epoch, on one rank's shared model.
	model := gnn.NewModel(gnn.Config{In: d.Features.Cols, Hidden: rs.hidden,
		Classes: d.NumClasses, Layers: len(s.fanouts), Seed: x.seed})
	opt := dense.NewAdam(0.01)
	var fwd, bwd, adam float64
	var gnnFlops int64
	for i := range batches {
		bg := bulk.ExtractBatch(i)
		feats := gnn.GatherFeatures(d.Features, bg.InputVertices())
		labels := make([]int, len(bg.Seeds))
		for j, v := range bg.Seeds {
			labels[j] = d.Labels[v]
		}
		var act *gnn.Activations
		var grads []float64
		var f1, f2 int64
		fwd += rec.timed("gnn.Forward", func() { act, f1 = model.Forward(bg, feats) })
		_, dLogits := gnn.Loss(act, labels)
		bwd += rec.timed("gnn.Backward", func() { grads, f2 = model.Backward(act, dLogits) })
		adam += rec.timed("dense.Adam.Step", func() { opt.Step(model.Params(), grads) })
		gnnFlops += f1 + f2
	}
	m["gnn.forward_s"], m["gnn.backward_s"], m["dense.adam_s"] = fwd, bwd, adam
	m["gnn.flops"] = float64(gnnFlops)

	if err := fetchLayer(rec, d, rs, bulk, m); err != nil {
		return nil, err
	}
	if err := collectiveLayer(rec, rs, model.NumParams(), m); err != nil {
		return nil, err
	}
	if rs.ckpt {
		if err := checkpointLayer(rec, rs, model, opt, m); err != nil {
			return nil, err
		}
	} else {
		m["graphio.ckpt_write_s"], m["graphio.ckpt_read_s"], m["graphio.ckpt_bytes"] = 0, 0, 0
	}
	return m, nil
}

// fetchLayer runs one epoch of feature fetches through FetchCached at
// the workload's P, C and cache: in round k rank r fetches batch k·P+r's
// input rows, or joins with an empty request.
func fetchLayer(rec *recorder, d *datasets.Dataset, rs runShape, bulk *core.BulkSample, m map[string]float64) error {
	nb := len(bulk.Batches)
	inputs := make([][]int, nb)
	for i := range inputs {
		inputs[i] = bulk.ExtractBatch(i).InputVertices()
	}
	rounds := (nb + rs.p - 1) / rs.p
	caches := make([]cache.Cache, rs.p)
	var err error
	m["pipeline.fetch_s"] = rec.timed("pipeline.FetchCached", func() {
		cl := cluster.New(rs.p, rs.model)
		grid := cluster.NewGrid(cl, rs.p, rs.c)
		stores := pipeline.NewFeatureStores(grid, d.Features)
		_, err = cl.Run(func(r *cluster.Rank) error {
			if rs.policy != cache.None && rs.cacheFrac > 0 {
				caches[r.ID] = cache.New(rs.policy, int(rs.cacheFrac*float64(d.Graph.NumVertices())), d.Graph.Degrees())
			}
			for k := 0; k < rounds; k++ {
				var verts []int
				if b := k*rs.p + r.ID; b < nb {
					verts = inputs[b]
				}
				stores[r.ID].FetchCached(r, verts, caches[r.ID])
			}
			return nil
		})
	})
	if err != nil {
		return fmt.Errorf("layer fetch: %w", err)
	}
	var st cache.Stats
	for _, c := range caches {
		if c != nil {
			st.Hits += c.Stats().Hits
			st.Misses += c.Stats().Misses
		}
	}
	m["cache.lookups"] = float64(st.Hits + st.Misses)
	m["cache.hit_rate"] = st.HitRate()
	return nil
}

// collectiveLayer times the gradient all-reduce over the world and the
// feature all-to-allv over a process column, per call, at the
// workload's P, collectives, topology and backend.
func collectiveLayer(rec *recorder, rs runShape, numParams int, m map[string]float64) error {
	grads := make([]float64, numParams)
	run := func(name string, body func(grid *cluster.Grid, r *cluster.Rank)) (float64, error) {
		var err error
		sec := rec.timed(name, func() {
			cl := cluster.New(rs.p, rs.model)
			grid := cluster.NewGrid(cl, rs.p, rs.c)
			_, err = cl.Run(func(r *cluster.Rank) error {
				for i := 0; i < collectiveCalls; i++ {
					body(grid, r)
				}
				return nil
			})
		})
		return sec / collectiveCalls, err
	}
	var err error
	// The call shape training uses: every member shares one total.
	if m["cluster.allreduce_call_s"], err = run("cluster.AllReduceSumApply", func(grid *cluster.Grid, r *cluster.Rank) {
		cluster.AllReduceSumApply(grid.World(), r, grads, func([]float64) {})
	}); err != nil {
		return fmt.Errorf("layer allreduce: %w", err)
	}
	if m["cluster.alltoallv_call_s"], err = run("cluster.AllToAllv", func(grid *cluster.Grid, r *cluster.Rank) {
		col := grid.ColComm(r.ID)
		parts := make([][]int, col.Size())
		for j := range parts {
			parts[j] = []int{r.ID, j}
		}
		cluster.AllToAllv(col, r, parts, func(p []int) int { return 8 * len(p) })
	}); err != nil {
		return fmt.Errorf("layer alltoallv: %w", err)
	}
	return nil
}

// checkpointLayer round-trips one resumable checkpoint at the
// workload's parameter count and rank count through the graphio codec.
func checkpointLayer(rec *recorder, rs runShape, model *gnn.Model, opt *dense.Adam, m map[string]float64) error {
	snaps := make([]cluster.RankSnapshot, rs.p)
	if _, err := cluster.New(rs.p, rs.model).Run(func(r *cluster.Rank) error {
		r.SetPhase(resilience.PhaseCheckpoint)
		r.ChargeLink(cluster.HostLink, resilience.CheckpointBytes(model.NumParams()))
		snaps[r.ID] = r.Snapshot()
		return nil
	}); err != nil {
		return fmt.Errorf("layer checkpoint: %w", err)
	}
	t, am, av := opt.State()
	ck := &graphio.Checkpoint{Epoch: 1, Params: model.Params(), OptT: t, OptM: am, OptV: av, Ranks: snaps}
	var buf bytes.Buffer
	var err error
	m["graphio.ckpt_write_s"] = rec.timed("graphio.WriteCheckpoint", func() { err = graphio.WriteCheckpoint(&buf, ck) })
	if err != nil {
		return fmt.Errorf("layer checkpoint write: %w", err)
	}
	m["graphio.ckpt_bytes"] = float64(buf.Len())
	m["graphio.ckpt_read_s"] = rec.timed("graphio.ReadCheckpoint", func() { _, err = graphio.ReadCheckpoint(bytes.NewReader(buf.Bytes())) })
	if err != nil {
		return fmt.Errorf("layer checkpoint read: %w", err)
	}
	return nil
}

// median returns the middle value (mean of the middle two for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
