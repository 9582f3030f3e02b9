package main

import (
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuProfile is the traced runs' CPU profile as the fold needs it: each
// sample's stack (leaf first) as function names, with its CPU
// nanoseconds.
type cpuProfile struct {
	stacks [][]string
	nanos  []int64
}

// readCPUProfile symbolizes the profile at path with the toolchain's
// `go tool pprof -traces`, which prints every sample as a value line
// followed by one frame per line, leaf first, between separator lines.
func readCPUProfile(path string) (*cpuProfile, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", "-unit=ns", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(out)
}

// parseTraces reads `go tool pprof -traces -unit=ns` output: after the
// header, each sample is a separator line, then its value and leaf frame
// on one line, then one caller per line.
func parseTraces(out []byte) (*cpuProfile, error) {
	p := &cpuProfile{}
	var stack []string
	var ns int64
	flush := func() {
		if stack != nil {
			p.stacks = append(p.stacks, stack)
			p.nanos = append(p.nanos, ns)
		}
		stack = nil
	}
	inSample := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "-----"):
			flush()
			inSample = true
		case !inSample || len(f) == 0:
		case stack == nil:
			v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
			if err != nil || len(f) < 2 || !strings.HasSuffix(f[0], "ns") {
				return nil, fmt.Errorf("profile: bad sample line %q", line)
			}
			ns, stack = int64(v), []string{f[1]}
		default:
			stack = append(stack, f[0]) // drops an "(inline)" mark
		}
	}
	flush()
	if len(p.stacks) == 0 {
		return nil, fmt.Errorf("profile: no samples in pprof output")
	}
	return p, nil
}

// funcPackage returns the import path of a symbol such as
// "repro/internal/cluster/sim.(*Sched).Run" or "runtime.mallocgc".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold other packages' paths
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// Stack frames that mark runtime work as garbage collection or as
// goroutine scheduling. A runtime leaf counts as GC or scheduling when
// one of these appears anywhere on its stack.
var (
	gcRoots = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
		"runtime.gcMarkTermination", "runtime.sweepone", "runtime.deductSweepCredit",
		"runtime.markroot", "runtime.gcDrain",
	}
	schedRoots = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.wakep",
		"runtime.newproc", "runtime.goexit0", "runtime.mcall", "runtime.notesleep",
		"runtime.notewakeup", "runtime.startm", "runtime.stopm", "runtime.sysmon",
		"runtime.chansend", "runtime.chanrecv", "runtime.semacquire1", "runtime.semrelease1",
	}
)

func onStack(stack []string, roots []string) bool {
	for _, fn := range stack {
		for _, r := range roots {
			if fn == r {
				return true
			}
		}
	}
	return false
}

// moduleRoot prefixes the program's packages in profile symbols.
const moduleRoot = "repro/internal/"

// fold sums CPU seconds by the package of each sample's leaf frame.
// Program packages are keyed by their last path element ("cluster",
// "sim" for cluster/sim). "runtime" holds the runtime and its
// internal/runtime/* packages (maps, atomics, syscalls), also split into
// GC and scheduling shares; "profile" holds the total.
func (p *cpuProfile) fold() map[string]float64 {
	out := map[string]float64{}
	for i, stack := range p.stacks {
		sec := float64(p.nanos[i]) / 1e9
		out["profile"] += sec
		pkg := funcPackage(stack[0])
		switch {
		case strings.HasPrefix(pkg, moduleRoot):
			out[pkg[strings.LastIndex(pkg, "/")+1:]] += sec
		case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
			out["runtime"] += sec
			if onStack(stack, gcRoots) {
				out["runtime.gc"] += sec
			} else if onStack(stack, schedRoots) {
				out["runtime.sched"] += sec
			}
		}
	}
	return out
}
