// Package sim is the scheduler under the cluster simulator: it runs
// one task per simulated rank (or rank stream), and the simulator's
// blocking primitives (the collective rendezvous, the point-to-point
// mailbox, the bounded stage queues, stream joins) are written once
// against its two operations — a waiter parks itself (Task.Park) and
// whoever satisfies the wait readies it (Sched.Ready). The scheduler
// runs in one of two modes; the primitives cannot tell them apart.
//
// The discrete-event mode (New) is a single-threaded cooperative
// scheduler driven off a priority event queue. Exactly one task runs at
// any moment. A task runs until it blocks on a simulated
// synchronization point, parks itself, and hands control back to the
// scheduler, which pops the next event and resumes its task. Tasks are
// implemented as goroutines for their stacks only — the resume/yield
// channel handoff guarantees a single runnable goroutine.
//
// Events are ordered by Key = (time, rank, seq): simulated seconds
// first, then rank id, then a global monotonically increasing sequence
// number assigned when the event is pushed. The (rank, seq) tail makes
// ties — ubiquitous in a bulk-synchronous program, where every member
// of a collective wakes at the same simulated instant — deterministic,
// so a discrete-event run is a pure function of the program, never of
// goroutine scheduling.
//
// The free mode (NewFree) runs every task as an ordinary goroutine
// that the Go runtime schedules in parallel. Park waits for a wake
// token and Ready hands one over, so a Ready that arrives before its
// Park is not lost; the simulated time passed to Ready is ignored.
package sim

import (
	"fmt"
	"sync"
)

// Key orders events: simulated time, then rank, then push sequence.
type Key struct {
	Time float64
	Rank int
	Seq  uint64
}

// Less is the strict weak ordering the event queue pops in.
func (k Key) Less(o Key) bool {
	if k.Time != o.Time {
		return k.Time < o.Time
	}
	if k.Rank != o.Rank {
		return k.Rank < o.Rank
	}
	return k.Seq < o.Seq
}

// event is one queue entry: resume this task at this key.
type event struct {
	key  Key
	task *Task
}

// eventQueue is a binary min-heap of events ordered by Key.
type eventQueue struct {
	es []event
}

func (q *eventQueue) Len() int { return len(q.es) }

func (q *eventQueue) push(e event) {
	q.es = append(q.es, e)
	i := len(q.es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.es[i].key.Less(q.es[p].key) {
			break
		}
		q.es[i], q.es[p] = q.es[p], q.es[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	top := q.es[0]
	last := len(q.es) - 1
	q.es[0] = q.es[last]
	q.es = q.es[:last]
	n := last
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.es[l].key.Less(q.es[min].key) {
			min = l
		}
		if r < n && q.es[r].key.Less(q.es[min].key) {
			min = r
		}
		if min == i {
			break
		}
		q.es[i], q.es[min] = q.es[min], q.es[i]
		i = min
	}
	return top
}

// Task is one thread of simulated execution (a rank body or one of
// its forked streams).
type Task struct {
	// Rank is the simulated rank id used for event tie-breaking.
	Rank int

	s *Sched
	// resume carries the run token: an unbuffered handoff from the
	// event loop in discrete-event mode, a one-slot wake token in free
	// mode.
	resume chan struct{}
	// queued guards against double-Ready in discrete-event mode: a
	// task already holding an event in the queue must not be pushed
	// again. (Free mode's guard is the full token slot.)
	queued bool
}

// Sched is the scheduler of one simulated run. Create one per run with
// New or NewFree; it is not reusable.
type Sched struct {
	// free selects free mode; the fields below it belong to one mode
	// each.
	free bool
	// tasks counts free-mode tasks that have not finished.
	tasks sync.WaitGroup

	q    eventQueue
	seq  uint64
	live int
	// yield is the single-token handoff back to the Run loop; exactly
	// one task goroutine is ever unparked, so the channel never sees
	// concurrent senders.
	yield chan struct{}
	// trap records the first panic that escaped a task body; Run
	// rethrows it on the scheduler goroutine once the loop drains, so
	// an un-recovered simulated-program panic still crashes the
	// process with its diagnostic instead of wedging the event loop.
	trap any
}

// New returns an empty discrete-event scheduler.
func New() *Sched {
	return &Sched{yield: make(chan struct{})}
}

// NewFree returns an empty free-mode scheduler.
func NewFree() *Sched {
	return &Sched{free: true}
}

// Spawn creates a parked task that will execute fn when first readied.
// In discrete-event mode fn runs on its own goroutine but only ever
// while the scheduler has handed it the run token; in free mode it runs
// unconstrained, and a panic escaping fn crashes the process like any
// goroutine's.
func (s *Sched) Spawn(rank int, fn func(t *Task)) *Task {
	if s.free {
		t := &Task{Rank: rank, s: s, resume: make(chan struct{}, 1)}
		s.tasks.Add(1)
		go func() {
			defer s.tasks.Done()
			<-t.resume
			fn(t)
		}()
		return t
	}
	t := &Task{Rank: rank, s: s, resume: make(chan struct{})}
	s.live++
	go func() {
		<-t.resume
		defer func() {
			if p := recover(); p != nil && s.trap == nil {
				s.trap = p
			}
			s.live--
			s.yield <- struct{}{}
		}()
		fn(t)
	}()
	return t
}

// Ready schedules t to resume at simulated time tm. In discrete-event
// mode it is callable from the scheduler's caller (before Run) or from
// the currently running task, both single-threaded with respect to the
// queue; in free mode from any goroutine. Readying a task again before
// it has resumed is a scheduling bug and panics.
func (s *Sched) Ready(t *Task, tm float64) {
	if s.free {
		select {
		case t.resume <- struct{}{}:
		default:
			panic(fmt.Sprintf("sim: task (rank %d) readied twice", t.Rank))
		}
		return
	}
	if t.queued {
		panic(fmt.Sprintf("sim: task (rank %d) readied twice", t.Rank))
	}
	t.queued = true
	s.q.push(event{key: Key{Time: tm, Rank: t.Rank, Seq: s.seq}, task: t})
	s.seq++
}

// Park blocks the calling task until a peer (or the deadlock detector)
// readies it again. The caller must not hold any lock another task
// could need: the peer that would ready it may first need that lock
// (and in discrete-event mode, the resumed peer may be any task).
func (t *Task) Park() {
	if !t.s.free {
		t.s.yield <- struct{}{}
	}
	<-t.resume
}

// Depth reports the number of queued events — part of the deadlock
// diagnostics surfaced by the cluster's poisoned-rendezvous errors.
func (s *Sched) Depth() int { return s.q.Len() }

// Run returns once every spawned task has finished, including tasks
// spawned by tasks. In free mode it only waits. In discrete-event mode
// it drives the event loop, and an empty queue with live tasks is a
// deadlock: every remaining task is parked with no event that could
// ever wake it, so Run panics with the queue/live diagnostics (the
// simulated program's own deadlock detectors usually fire first, with
// a richer message).
func (s *Sched) Run() {
	if s.free {
		s.tasks.Wait()
		return
	}
	for s.live > 0 {
		if s.q.Len() == 0 {
			if s.trap != nil {
				panic(s.trap)
			}
			panic(fmt.Sprintf("sim: deadlock: %d tasks parked with no pending events", s.live))
		}
		e := s.q.pop()
		e.task.queued = false
		e.task.resume <- struct{}{}
		<-s.yield
	}
	if s.trap != nil {
		panic(s.trap)
	}
}
