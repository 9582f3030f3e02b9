package cluster

import (
	"fmt"
	"os"
	"strings"
)

// Backend selects the mode of the scheduler (internal/cluster/sim) a
// simulated run's tasks — rank bodies and forked streams — run on.
// Every blocking primitive is written once against that scheduler's
// Park/Ready, so both backends execute the same rank bodies, the same
// primitives and the same cost model, and results — trained
// parameters, losses, simulated seconds, link traffic — are
// bit-identical between them on contention-off runs (pinned by the
// golden tests and the goroutine-vs-DES differential suite); only the
// wall-clock cost of running the simulator differs.
type Backend int

const (
	// DefaultBackend is the zero value: "unset". Cluster construction
	// resolves it through the GNN_BACKEND environment variable and
	// falls back to GoroutineBackend, mirroring the DefaultAlgorithm
	// convention (an explicit selection always wins over the
	// environment).
	DefaultBackend Backend = iota
	// GoroutineBackend runs the scheduler in free mode (sim.NewFree):
	// every task is a goroutine the Go runtime schedules in parallel,
	// and a parked task waits for its wake token. Faster on multiple
	// cores; under a contention topology the ledger commits flows in
	// real arrival order, so contended timings vary from run to run.
	GoroutineBackend
	// DESBackend runs the scheduler as one discrete-event loop
	// (sim.New): a single-threaded cooperative scheduler with a
	// priority event queue keyed by (time, rank, seq), exactly one task
	// runnable at a time. That removes the scheduler-churn wall at
	// large p and makes event order — and therefore contention-model
	// timings — deterministic.
	DESBackend
)

// BackendEnv is the environment variable consulted when a cost model
// leaves Backend unset.
const BackendEnv = "GNN_BACKEND"

// BackendFlagUsage is the flag help shared by the CLIs (cmd/trainer,
// cmd/gnnbench, cmd/compare) so the binaries' flag sets stay in
// lockstep.
const BackendFlagUsage = "simulator backend: default, goroutine or des (default resolves $GNN_BACKEND, then goroutine)"

// String returns the flag spelling of the backend.
func (b Backend) String() string {
	switch b {
	case DefaultBackend:
		return "default"
	case GoroutineBackend:
		return "goroutine"
	case DESBackend:
		return "des"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// ParseBackend parses a flag spelling ("default", "goroutine",
// "des"/"event"/"discrete-event"). The empty string is DefaultBackend.
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "default":
		return DefaultBackend, nil
	case "goroutine", "goroutines", "go":
		return GoroutineBackend, nil
	case "des", "event", "discrete-event":
		return DESBackend, nil
	}
	return 0, fmt.Errorf("cluster: unknown backend %q (want default, goroutine or des)", s)
}

// Resolve returns the concrete backend this selection executes as:
// explicit > $GNN_BACKEND > goroutine. Exported for harness layers
// that need the execution mode before any cluster exists — the sweep
// worker pool keeps goroutine-backend cells with a contended topology
// off the pool, because the free-running tasks commit to the
// contention ledger in real arrival order and concurrent sibling
// cells would perturb it (the DES backend's single event loop per
// cluster is immune).
func (b Backend) Resolve() Backend { return resolveBackend(b) }

// resolveBackend turns an unset selection into a concrete backend:
// explicit > $GNN_BACKEND > goroutine. An unparsable environment value
// is ignored rather than fatal — the environment is a convenience
// default, not a validated input path (the CLIs validate -backend).
func resolveBackend(b Backend) Backend {
	if b != DefaultBackend {
		return b
	}
	if env, err := ParseBackend(os.Getenv(BackendEnv)); err == nil && env != DefaultBackend {
		return env
	}
	return GoroutineBackend
}
