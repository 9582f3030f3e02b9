package sim

import (
	"math/rand"
	"testing"
	"time"
)

// TestEventQueuePopsKeyOrder is the determinism property test: however
// events are interleaved at push time — including many sharing one
// timestamp — they pop in strict (time, rank, seq) order.
func TestEventQueuePopsKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for trial := 0; trial < 200; trial++ {
		var q eventQueue
		n := 1 + rng.Intn(64)
		// A tiny time domain forces heavy timestamp collisions, the
		// regime the (rank, seq) tie-break exists for.
		times := []float64{0, 0, 1e-6, 1e-6, 2e-6}
		var seq uint64
		keys := make([]Key, 0, n)
		for i := 0; i < n; i++ {
			k := Key{
				Time: times[rng.Intn(len(times))],
				Rank: rng.Intn(4),
				Seq:  seq,
			}
			seq++
			q.push(event{key: k})
			keys = append(keys, k)
		}
		var prev Key
		for i := 0; i < n; i++ {
			got := q.pop().key
			if i > 0 && got.Less(prev) {
				t.Fatalf("trial %d: pop %d out of order: %+v after %+v", trial, i, got, prev)
			}
			if i > 0 && !prev.Less(got) {
				t.Fatalf("trial %d: pop %d not strictly increasing: %+v then %+v", trial, i, prev, got)
			}
			prev = got
		}
		if q.Len() != 0 {
			t.Fatalf("trial %d: %d events left after draining", trial, q.Len())
		}
		_ = keys
	}
}

// TestKeyOrdering pins the tie-breaking rule: time first, then rank,
// then sequence number.
func TestKeyOrdering(t *testing.T) {
	cases := []struct {
		a, b Key
		less bool
	}{
		{Key{1, 0, 0}, Key{2, 0, 0}, true},
		{Key{2, 0, 9}, Key{1, 5, 0}, false},
		{Key{1, 0, 9}, Key{1, 1, 0}, true},
		{Key{1, 2, 0}, Key{1, 1, 9}, false},
		{Key{1, 1, 3}, Key{1, 1, 4}, true},
		{Key{1, 1, 4}, Key{1, 1, 4}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("Less(%+v, %+v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
}

// TestSchedulerRunsTasksInReadyOrder: tasks readied at one timestamp
// execute in rank order, and the whole interleaving is reproducible.
func TestSchedulerRunsTasksInReadyOrder(t *testing.T) {
	run := func() []int {
		s := New()
		var order []int
		tasks := make([]*Task, 8)
		for i := range tasks {
			i := i
			tasks[i] = s.Spawn(i, func(tk *Task) {
				order = append(order, i)
			})
		}
		// Ready in scrambled order; the queue must still pop by rank.
		for _, i := range []int{5, 2, 7, 0, 3, 6, 1, 4} {
			s.Ready(tasks[i], 0)
		}
		s.Run()
		return order
	}
	a := run()
	for i, r := range a {
		if r != i {
			t.Fatalf("tasks ran out of rank order: %v", a)
		}
	}
}

// TestSchedulerParkReady: a parked task resumes when a peer readies it,
// and values written before Ready are visible after Park returns.
func TestSchedulerParkReady(t *testing.T) {
	s := New()
	var got int
	var waiter *Task
	parked := false
	waiter = s.Spawn(0, func(tk *Task) {
		parked = true
		tk.Park()
		if got != 42 {
			t.Errorf("parked task woke before peer wrote: got %d", got)
		}
	})
	producer := s.Spawn(1, func(tk *Task) {
		if !parked {
			t.Error("rank order violated: producer ran before waiter parked")
		}
		got = 42
		s.Ready(waiter, 3.5)
	})
	s.Ready(waiter, 0)
	s.Ready(producer, 0)
	s.Run()
}

// TestSchedulerDeadlockPanics: tasks parked forever must crash with a
// diagnostic, not hang the loop.
func TestSchedulerDeadlockPanics(t *testing.T) {
	defer func() {
		if p := recover(); p == nil {
			t.Fatal("no panic for a parked task with an empty queue")
		}
	}()
	s := New()
	tk := s.Spawn(0, func(tk *Task) { tk.Park() })
	s.Ready(tk, 0)
	s.Run()
}

// TestSchedulerRethrowsTaskPanic: a panic escaping a task body must
// surface from Run on the scheduler goroutine.
func TestSchedulerRethrowsTaskPanic(t *testing.T) {
	defer func() {
		if p := recover(); p == nil {
			t.Fatal("task panic swallowed")
		} else if s, ok := p.(string); !ok || s != "boom" {
			t.Fatalf("panic value mangled: %v", p)
		}
	}()
	s := New()
	tk := s.Spawn(0, func(tk *Task) { panic("boom") })
	s.Ready(tk, 0)
	s.Run()
}

// startGated spawns a free-mode task that signals started, then blocks
// on gate before running rest; it returns the task once started. While
// it sits at the gate the task is running but not parked, so the test
// controls exactly when its wake token can be consumed.
func startGated(s *Sched, gate <-chan struct{}, rest func(tk *Task)) *Task {
	started := make(chan struct{})
	tk := s.Spawn(0, func(tk *Task) {
		close(started)
		<-gate
		rest(tk)
	})
	s.Ready(tk, 0)
	<-started
	return tk
}

// TestFreeReadyBeforeParkNotLost: in free mode a Ready that arrives
// while the task is still running is kept, and the task's next Park
// returns at once instead of waiting forever.
func TestFreeReadyBeforeParkNotLost(t *testing.T) {
	s := NewFree()
	gate := make(chan struct{})
	tk := startGated(s, gate, func(tk *Task) { tk.Park() })
	s.Ready(tk, 0) // before the Park
	close(gate)
	done := make(chan struct{})
	go func() {
		s.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a Ready issued before Park was lost: the task never woke")
	}
}

// TestFreeReadyTwicePanics: readying a free-mode task again before it
// has consumed the first wake is a scheduling bug and panics.
func TestFreeReadyTwicePanics(t *testing.T) {
	s := NewFree()
	gate := make(chan struct{})
	tk := startGated(s, gate, func(tk *Task) { tk.Park() })
	s.Ready(tk, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second Ready before the task resumed did not panic")
			}
		}()
		s.Ready(tk, 0)
	}()
	close(gate)
	s.Run()
}

// TestFreeRunWaitsForSpawnedTasks: Run returns only after every task
// has finished, including one spawned by another task that outlives
// its parent.
func TestFreeRunWaitsForSpawnedTasks(t *testing.T) {
	s := NewFree()
	gate := make(chan struct{})
	childStarted := make(chan struct{})
	childDone := false
	parent := s.Spawn(0, func(tk *Task) {
		child := s.Spawn(1, func(*Task) {
			close(childStarted)
			<-gate
			childDone = true
		})
		s.Ready(child, 0)
	})
	s.Ready(parent, 0)
	<-childStarted
	returned := make(chan struct{})
	go func() {
		s.Run()
		close(returned)
	}()
	select {
	case <-returned:
		t.Fatal("Run returned while a task spawned by a task was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	<-returned
	if !childDone {
		t.Fatal("Run returned before the spawned task finished")
	}
}
