package main

// metric describes one reported number. End-to-end metrics carry the
// bound a later change may worsen them by; per-layer metrics instead
// name the end-to-end metric they should move and the workloads where
// they matter, written down before any change is measured against them.
type metric struct {
	name   string
	unit   string
	better string  // end-to-end only: "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
	moves  string  // per-layer only: the end-to-end metric it should move
	on     string  // per-layer only: the workloads where it matters
}

// endToEnd is what a user of the simulator pays and gets, measured with
// tracing and profiling off. Host timings and memory are medians over
// an invocation's completed timed runs; sim_epoch_s and final_loss are
// exact given the seed.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "run_wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "sim_epoch_s", unit: "sim_s", better: "lower", bound: 0.15},
	{name: "final_loss", unit: "nat", better: "lower", bound: 0.1},
}

const (
	allWorkloads = "all"
	trainBoth    = "replicated-train, partitioned-train"
	replQuiver   = "replicated-train, quiver-recovery"
)

// perLayer comes from the separate traced run: the simulated accounting
// read from the program's Result, the benchmark's spans around public
// calls on the workload's real inputs (the layer pass), and the CPU
// profile folded by the package of the leaf frame.
var perLayer = []metric{
	// Simulated accounting, per epoch, exact given the seed.
	{name: "pipeline.sampling_sim_s", unit: "sim_s", moves: "sim_epoch_s", on: allWorkloads},
	{name: "pipeline.sampling_comm_sim_s", unit: "sim_s", moves: "sim_epoch_s", on: "partitioned-train"},
	{name: "pipeline.fetch_sim_s", unit: "sim_s", moves: "sim_epoch_s", on: allWorkloads},
	{name: "pipeline.fetch_comm_sim_s", unit: "sim_s", moves: "sim_epoch_s", on: allWorkloads},
	{name: "pipeline.propagation_sim_s", unit: "sim_s", moves: "sim_epoch_s", on: allWorkloads},
	{name: "engine.stall_sim_s", unit: "sim_s", moves: "sim_epoch_s", on: "partitioned-train, scaleout-contended"},
	{name: "cluster.collective_calls", unit: "count", moves: "sim_epoch_s", on: allWorkloads},
	{name: "cluster.bytes_intra", unit: "B", moves: "sim_epoch_s", on: allWorkloads},
	{name: "cluster.bytes_inter", unit: "B", moves: "sim_epoch_s", on: allWorkloads},
	{name: "cluster.bytes_host", unit: "B", moves: "sim_epoch_s", on: "replicated-train, quiver-recovery"},
	{name: "cluster.ledger_peak_spans", unit: "count", moves: "sim_epoch_s", on: "scaleout-contended"},
	{name: "resilience.attempts", unit: "count", moves: "sim_epoch_s", on: "quiver-recovery"},
	{name: "resilience.wasted_sim_s", unit: "sim_s", moves: "sim_epoch_s", on: "quiver-recovery"},

	// Layer pass: host seconds and work counts around public calls.
	{name: "graph.rmat_s", unit: "s", moves: "setup_s", on: allWorkloads},
	{name: "graph.edges", unit: "count", moves: "setup_s", on: allWorkloads},
	{name: "core.sample_bulk_s", unit: "s", moves: "run_wall_s", on: "replicated-train"},
	{name: "core.sampled_edges", unit: "count", moves: "run_wall_s", on: "replicated-train"},
	{name: "sparse.spgemm_s", unit: "s", moves: "run_wall_s", on: trainBoth},
	{name: "sparse.spgemm_flops", unit: "count", moves: "run_wall_s", on: trainBoth},
	{name: "distsample.sample_partitioned_s", unit: "s", moves: "run_wall_s", on: "partitioned-train"},
	{name: "gnn.forward_s", unit: "s", moves: "run_wall_s", on: replQuiver},
	{name: "gnn.backward_s", unit: "s", moves: "run_wall_s", on: replQuiver},
	{name: "gnn.flops", unit: "count", moves: "run_wall_s", on: replQuiver},
	{name: "dense.adam_s", unit: "s", moves: "run_wall_s", on: replQuiver},
	{name: "pipeline.fetch_s", unit: "s", moves: "run_wall_s", on: "scaleout-contended, partitioned-train"},
	{name: "cache.hit_rate", unit: "ratio", moves: "run_wall_s", on: "partitioned-train"},
	{name: "cache.lookups", unit: "count", moves: "run_wall_s", on: "partitioned-train"},
	{name: "cluster.allreduce_call_s", unit: "s", moves: "run_wall_s", on: "scaleout-contended"},
	{name: "cluster.alltoallv_call_s", unit: "s", moves: "run_wall_s", on: "scaleout-contended"},
	{name: "graphio.ckpt_write_s", unit: "s", moves: "run_wall_s", on: replQuiver},
	{name: "graphio.ckpt_read_s", unit: "s", moves: "run_wall_s", on: replQuiver},
	{name: "graphio.ckpt_bytes", unit: "B", moves: "run_wall_s", on: replQuiver},
	{name: "resilience.recovery_wall_s", unit: "s", moves: "run_wall_s", on: "quiver-recovery"},

	// Self-CPU of the traced runs, per run, by the leaf frame's package.
	{name: "core.self_cpu_s", unit: "s", moves: "run_wall_s, cpu_s", on: "replicated-train"},
	{name: "sparse.self_cpu_s", unit: "s", moves: "run_wall_s, cpu_s", on: trainBoth},
	{name: "dense.self_cpu_s", unit: "s", moves: "run_wall_s, cpu_s", on: replQuiver},
	{name: "gnn.self_cpu_s", unit: "s", moves: "run_wall_s, cpu_s", on: replQuiver},
	{name: "distsample.self_cpu_s", unit: "s", moves: "run_wall_s, cpu_s", on: "partitioned-train"},
	{name: "pipeline.self_cpu_s", unit: "s", moves: "run_wall_s, cpu_s", on: "scaleout-contended"},
	{name: "cluster.self_cpu_s", unit: "s", moves: "run_wall_s, cpu_s", on: "scaleout-contended"},
	{name: "sim.self_cpu_s", unit: "s", moves: "run_wall_s, cpu_s", on: "scaleout-contended"},
	{name: "engine.self_cpu_s", unit: "s", moves: "run_wall_s, cpu_s", on: "partitioned-train, scaleout-contended"},
	{name: "baseline.self_cpu_s", unit: "s", moves: "run_wall_s, cpu_s", on: "quiver-recovery"},
	{name: "runtime.self_cpu_s", unit: "s", moves: "run_wall_s, cpu_s", on: "scaleout-contended"},
	{name: "runtime.gc_self_cpu_s", unit: "s", moves: "run_wall_s, cpu_s", on: "scaleout-contended"},
	{name: "runtime.sched_self_cpu_s", unit: "s", moves: "run_wall_s, cpu_s", on: "scaleout-contended"},
	{name: "other.self_cpu_s", unit: "s", moves: "run_wall_s, cpu_s", on: allWorkloads},
	{name: "profile.cpu_s", unit: "s", moves: "cpu_s", on: allWorkloads},
	{name: "runtime.gc_cycles", unit: "count", moves: "run_wall_s, alloc_mb", on: "scaleout-contended"},
	{name: "runtime.gc_pause_s", unit: "s", moves: "run_wall_s, alloc_mb", on: "scaleout-contended"},

	// What the traced run itself cost over the untraced median.
	{name: "trace_overhead_s", unit: "s", moves: "none (measurement cost)", on: allWorkloads},
}
