package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// backendModel returns the test cost model pinned to backend b.
func backendModel(b Backend) CostModel {
	m := testModel()
	m.Backend = b
	return m
}

// bothBackends runs f once per concrete backend as a subtest, for
// behaviour that does not depend on which scheduler runs the tasks.
func bothBackends(t *testing.T, f func(t *testing.T, b Backend)) {
	for _, b := range []Backend{GoroutineBackend, DESBackend} {
		t.Run(b.String(), func(t *testing.T) { f(t, b) })
	}
}

// TestBackendResolutionEnv: an unset Backend resolves through
// GNN_BACKEND, and an unparsable environment value falls back to
// goroutines instead of failing.
func TestBackendResolutionEnv(t *testing.T) {
	t.Setenv(BackendEnv, "")
	if got := New(1, testModel()).Backend(); got != GoroutineBackend {
		t.Fatalf("unset env resolved to %v, want goroutine", got)
	}
	t.Setenv(BackendEnv, "des")
	if got := New(1, testModel()).Backend(); got != DESBackend {
		t.Fatalf("GNN_BACKEND=des resolved to %v, want des", got)
	}
	t.Setenv(BackendEnv, "not-a-backend")
	if got := New(1, testModel()).Backend(); got != GoroutineBackend {
		t.Fatalf("bad env resolved to %v, want goroutine fallback", got)
	}
}

// TestBackendExplicitBeatsEnv: a cost model's explicit backend always
// wins over the environment, so in-process both-backend loops (the
// golden and differential tests) stay valid under CI's GNN_BACKEND=des.
func TestBackendExplicitBeatsEnv(t *testing.T) {
	t.Setenv(BackendEnv, "des")
	m := testModel()
	m.Backend = GoroutineBackend
	if got := New(1, m).Backend(); got != GoroutineBackend {
		t.Fatalf("explicit goroutine under env=des resolved to %v", got)
	}
	t.Setenv(BackendEnv, "goroutine")
	if got := New(1, backendModel(DESBackend)).Backend(); got != DESBackend {
		t.Fatalf("explicit des under env=goroutine resolved to %v", got)
	}
}

// TestDESCollectivesMatchGoroutines: the same rank body produces
// bit-identical collective results and clocks on both backends.
func TestDESCollectivesMatchGoroutines(t *testing.T) {
	run := func(m CostModel) ([]float64, float64) {
		cl := New(8, m)
		world := cl.World()
		sums := make([]float64, 8)
		res, err := cl.Run(func(r *Rank) error {
			x := []float64{float64(r.ID + 1), float64(r.ID * r.ID)}
			sum := AllReduceSum(world, r, x)
			Barrier(world, r)
			sums[r.ID] = sum[0] + sum[1]
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return sums, res.SimTime
	}
	gm := testModel()
	gm.Backend = GoroutineBackend
	gSums, gTime := run(gm)
	dSums, dTime := run(backendModel(DESBackend))
	if gTime != dTime {
		t.Fatalf("SimTime differs: goroutine %v vs des %v", gTime, dTime)
	}
	for i := range gSums {
		if gSums[i] != dSums[i] {
			t.Fatalf("rank %d sum differs: %v vs %v", i, gSums[i], dSums[i])
		}
	}
}

// TestDESSendRecvMatchesGoroutines: point-to-point transfers complete
// with the same values and clocks on both backends, including when the
// receiver posts first.
func TestDESSendRecvMatchesGoroutines(t *testing.T) {
	run := func(m CostModel) (int, float64) {
		cl := New(2, m)
		var got int
		res, err := cl.Run(func(r *Rank) error {
			if r.ID == 0 {
				Send(cl, r, 1, 7, 42, 1024)
			} else {
				got = Recv[int](cl, r, 0, 7)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, res.SimTime
	}
	gm := testModel()
	gm.Backend = GoroutineBackend
	gVal, gTime := run(gm)
	dVal, dTime := run(backendModel(DESBackend))
	if gVal != 42 || dVal != 42 {
		t.Fatalf("payloads: goroutine %d, des %d, want 42", gVal, dVal)
	}
	if gTime != dTime {
		t.Fatalf("SimTime differs: goroutine %v vs des %v", gTime, dTime)
	}
}

// TestMismatchedCollectivesDiagnostic: the deadlock detector's
// diagnostic names the backend and, under DES, the event-queue depth
// (the DES analogue of a goroutine dump).
func TestMismatchedCollectivesDiagnostic(t *testing.T) {
	bothBackends(t, func(t *testing.T, b Backend) {
		cl := New(2, backendModel(b))
		world := cl.World()
		var mu sync.Mutex
		var msgs []string
		_, err := cl.Run(func(r *Rank) (err error) {
			defer func() {
				if p := recover(); p != nil {
					mu.Lock()
					msgs = append(msgs, fmt.Sprint(p))
					mu.Unlock()
				}
			}()
			if r.ID == 0 {
				Barrier(world, r)
			} else {
				AllReduceSum(world, r, []float64{1})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 2 {
			t.Fatalf("want both ranks to panic, got %d panics: %v", len(msgs), msgs)
		}
		for _, m := range msgs {
			if !strings.Contains(m, "mismatched collectives") {
				t.Fatalf("panic lacks diagnosis: %q", m)
			}
			if !strings.Contains(m, "backend="+b.String()) {
				t.Fatalf("panic lacks backend name: %q", m)
			}
			if b == DESBackend && !strings.Contains(m, "queued events") {
				t.Fatalf("panic lacks DES queue depth: %q", m)
			}
		}
	})
}

// TestAbandonedCollectiveDiagnostic: rendezvous poisoning reaches
// parked waiters, and the diagnostic carries the backend name, so a
// report always says which scheduler was running.
func TestAbandonedCollectiveDiagnostic(t *testing.T) {
	bothBackends(t, func(t *testing.T, b Backend) {
		cl := New(2, backendModel(b))
		world := cl.World()
		var msg string
		_, err := cl.Run(func(r *Rank) (err error) {
			if r.ID == 0 {
				return nil // leaves without joining the barrier
			}
			defer func() {
				if p := recover(); p != nil {
					msg = fmt.Sprint(p)
				}
			}()
			Barrier(world, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "rank 0") {
			t.Fatalf("deadlock not diagnosed: %q", msg)
		}
		if !strings.Contains(msg, "backend="+b.String()) {
			t.Fatalf("diagnostic lacks backend name: %q", msg)
		}
	})
}

// TestQueueBackpressure: Queue parks senders on a full queue and
// receivers on an empty one, preserving FIFO order and values across
// the handoff.
func TestQueueBackpressure(t *testing.T) {
	bothBackends(t, func(t *testing.T, b Backend) {
		cl := New(1, backendModel(b))
		var got []int
		_, err := cl.Run(func(r *Rank) error {
			q := r.NewQueue(2)
			f := r.ForkStream("producer", func(s *Rank) {
				for i := 0; i < 8; i++ {
					q.Send(s, i) // parks when the 2-slot buffer is full
				}
			})
			for i := 0; i < 8; i++ {
				got = append(got, q.Recv(r).(int))
			}
			f.Join(r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 8 {
			t.Fatalf("got %d values, want 8", len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("queue order broken: got %v", got)
			}
		}
	})
}
