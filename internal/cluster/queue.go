package cluster

import (
	"sync"

	"repro/internal/cluster/sim"
)

// Queue is a bounded FIFO handoff between two concurrent timelines of
// one rank (a staged pipeline's item and credit channels): senders
// park on the scheduler while it is full and receivers while it is
// empty. Queues carry no simulated time themselves — simulated
// backpressure is expressed by the values flowing through them (item
// completion times, credit clocks) and charged explicitly by the
// stages.
type Queue struct {
	cl *Cluster

	mu       sync.Mutex
	capacity int
	buf      []any
	sendW    []queueWaiter // parked senders, each carrying its pending value
	recvW    []*sim.Task   // parked receivers
}

type queueWaiter struct {
	task *sim.Task
	val  any
}

// NewQueue creates a bounded queue with the given capacity (values < 1
// are treated as 1).
func (r *Rank) NewQueue(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue{cl: r.cl, capacity: capacity}
}

// Prefill enqueues v before the queue is in use (initial credits); it
// must not be called once Send/Recv traffic has started and panics if
// the queue is already full.
func (q *Queue) Prefill(v any) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.buf) >= q.capacity {
		panic("cluster: Prefill on a full queue")
	}
	q.buf = append(q.buf, v)
}

// Send enqueues v, parking while the queue is full.
func (q *Queue) Send(r *Rank, v any) {
	q.mu.Lock()
	if len(q.buf) < q.capacity {
		q.buf = append(q.buf, v)
		if len(q.recvW) > 0 {
			w := q.recvW[0]
			q.recvW = q.recvW[1:]
			q.cl.sched.Ready(w, r.clock)
		}
		q.mu.Unlock()
		return
	}
	// Full: park with the value; the receiver that frees a slot moves
	// it into the buffer and readies us.
	q.sendW = append(q.sendW, queueWaiter{task: r.task, val: v})
	q.mu.Unlock()
	r.task.Park()
}

// Recv dequeues the oldest value, parking while the queue is empty.
func (q *Queue) Recv(r *Rank) any {
	q.mu.Lock()
	for len(q.buf) == 0 {
		q.recvW = append(q.recvW, r.task)
		q.mu.Unlock()
		r.task.Park()
		q.mu.Lock()
	}
	v := q.buf[0]
	q.buf = q.buf[1:]
	if len(q.sendW) > 0 {
		w := q.sendW[0]
		q.sendW = q.sendW[1:]
		q.buf = append(q.buf, w.val)
		q.cl.sched.Ready(w.task, r.clock)
	}
	q.mu.Unlock()
	return v
}

// Forked is the join handle of a stream forked with ForkStream.
type Forked struct {
	mu          sync.Mutex
	done        bool
	waiter      *sim.Task
	waiterClock float64
}

// ForkStream runs fn concurrently on a newly forked stream of r and
// returns a handle to join it. The stream shares r's identity, cost
// model and accounting buckets but owns an independent clock starting
// at r's current time (see Rank); it runs as its own scheduler task,
// readied at the fork's simulated time and sharing the rank id for
// event tie-breaking. This is the only way to fork a stream: a stream
// handle blocks through its task.
func (r *Rank) ForkStream(name string, fn func(s *Rank)) *Forked {
	s := r.newStream(name)
	f := &Forked{}
	sched := r.cl.sched
	s.task = sched.Spawn(r.ID, func(*sim.Task) {
		fn(s)
		f.mu.Lock()
		f.done = true
		w, clock := f.waiter, f.waiterClock
		f.mu.Unlock()
		if w != nil {
			sched.Ready(w, clock)
		}
	})
	sched.Ready(s.task, s.clock)
	return f
}

// Join parks r until the forked stream's body has returned. Join
// advances no simulated time — like joining a goroutine, it only
// synchronizes control flow; makespans aggregate through MaxClock.
func (f *Forked) Join(r *Rank) {
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		return
	}
	f.waiter = r.task
	f.waiterClock = r.clock
	f.mu.Unlock()
	r.task.Park()
}
