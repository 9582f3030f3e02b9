// Package cliutil holds the flag-parsing helpers shared by the CLI
// binaries (trainer, gnnbench and compare; datagen takes -profile), so
// -profile and -gpus accept one vocabulary everywhere and the
// validation is tested in one place instead of re-implemented per main
// package. The collective-algorithm and topology flags (taken by the
// three simulating CLIs) parse through
// cluster.ParseCollectives / cluster.ParseTopology directly; this
// package's tests pin their accept/reject tables alongside the local
// helpers so the whole shared flag surface has one conformance suite.
package cliutil

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/datasets"
)

// ParseProfile maps a -profile flag value to a dataset size tier.
func ParseProfile(s string) (datasets.Profile, error) {
	switch s {
	case "tiny":
		return datasets.Tiny, nil
	case "small":
		return datasets.Small, nil
	case "scale":
		return datasets.Scale, nil
	case "bench":
		return datasets.Bench, nil
	}
	return 0, fmt.Errorf("unknown profile %q (want tiny, small, scale or bench)", s)
}

// ProfileUsage is the shared help text for -profile flags.
const ProfileUsage = "dataset size: tiny, small, scale, bench"

// ParseInts parses a comma-separated integer list (surrounding spaces
// tolerated). An empty string is an error; callers treat "flag unset"
// before calling.
func ParseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in list %q", part, s)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseGPUCounts parses a -gpus flag: a comma-separated list of
// strictly positive simulated GPU counts.
func ParseGPUCounts(s string) ([]int, error) {
	counts, err := ParseInts(s)
	if err != nil {
		return nil, fmt.Errorf("bad GPU count list: %w", err)
	}
	for _, c := range counts {
		if c <= 0 {
			return nil, fmt.Errorf("bad GPU count %d: must be positive", c)
		}
	}
	return counts, nil
}

// ParseSweepWorkers parses a -sweepworkers flag: the worker-pool size
// the sweep experiments run their cells on. Empty and "default" mean
// one worker per CPU (GOMAXPROCS, resolved at run time, so 0 is
// returned here); 1 pins the sweep serial. Zero and negative counts
// are rejected rather than silently serialized — a miscomputed
// $(nproc) in a CI script should fail loudly.
func ParseSweepWorkers(s string) (int, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "default" {
		return 0, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad sweep worker count %q (want a positive integer or \"default\")", s)
	}
	if v < 1 {
		return 0, fmt.Errorf("bad sweep worker count %d: must be at least 1 (1 = serial)", v)
	}
	return v, nil
}

// ParsePerfReps parses a -perfreps flag: how many times the perf suite
// repeats each pinned workload before taking the min and median. Empty
// and "default" mean the harness default (returned as 0).
func ParsePerfReps(s string) (int, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "default" {
		return 0, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad perf rep count %q (want a positive integer or \"default\")", s)
	}
	if v < 1 {
		return 0, fmt.Errorf("bad perf rep count %d: must be at least 1", v)
	}
	return v, nil
}

// ParseFaults parses a -faults flag: a comma-separated list of
// rank@seconds fail-stop events (the canonical FaultPlan.String form,
// surrounding spaces tolerated), e.g. "1@0.5,3@1.25". Empty and
// "default" mean no injection (nil plan). Times must be positive and
// finite; rank range is validated later against the run's cluster size
// (FaultPlan.Validate), since the flag parser does not know p.
func ParseFaults(s string) (*cluster.FaultPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "default" {
		return nil, nil
	}
	var failures []cluster.Failure
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		rankStr, atStr, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("bad fault %q (want rank@seconds, e.g. 1@0.5)", part)
		}
		rank, err := strconv.Atoi(strings.TrimSpace(rankStr))
		if err != nil || rank < 0 {
			return nil, fmt.Errorf("bad fault rank %q in %q (want a non-negative integer)", rankStr, part)
		}
		at, err := strconv.ParseFloat(strings.TrimSpace(atStr), 64)
		if err != nil {
			return nil, fmt.Errorf("bad fault time %q in %q (want simulated seconds)", atStr, part)
		}
		if !(at > 0) || math.IsInf(at, 0) {
			return nil, fmt.Errorf("bad fault time %v in %q: must be positive and finite", at, part)
		}
		failures = append(failures, cluster.Failure{Rank: rank, At: at})
	}
	return &cluster.FaultPlan{Failures: failures}, nil
}

// FaultsUsage is the shared help text for -faults flags.
const FaultsUsage = "fail-stop injection plan: comma-separated rank@seconds events (e.g. 1@0.5,3@1.25)"

// ParseCkptInterval parses a -ckpt-interval flag: checkpoint the
// resumable training state every N completed epochs. Empty, "default"
// and "0" mean no checkpointing (returned as 0); negative and
// non-integer values are rejected.
func ParseCkptInterval(s string) (int, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "default" {
		return 0, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad checkpoint interval %q (want a non-negative epoch count or \"default\")", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("bad checkpoint interval %d: must be >= 0 (0 = no checkpoints)", v)
	}
	return v, nil
}

// CkptIntervalUsage is the shared help text for -ckpt-interval flags.
const CkptIntervalUsage = "checkpoint the resumable training state every N completed epochs (0 = off)"

// RequireExperiment rejects a flag scoped to one experiment when a
// different experiment is selected. Silently ignoring -perfout on a
// scaling run (say) would drop the baseline file the caller asked
// for — contradictory flag combinations are errors, not no-ops. A
// value of "" or "default" counts as unset.
func RequireExperiment(flagName, value, experiment, want string) error {
	if value == "" || value == "default" || experiment == want {
		return nil
	}
	return fmt.Errorf("-%s applies only to -experiment %s (selected: %s)", flagName, want, experiment)
}
