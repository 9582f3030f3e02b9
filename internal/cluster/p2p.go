package cluster

import (
	"fmt"
	"sync"

	"repro/internal/cluster/sim"
)

// mailbox implements matched point-to-point sends and receives between
// ranks, keyed by (src, dst, tag). Send blocks until the matching
// Recv arrives (rendezvous semantics, like MPI_Ssend), which keeps the
// simulated clocks honest: both sides leave at max(entry) + α + β·n.
type mailbox struct {
	mu    sync.Mutex
	slots map[mailKey]*mailSlot
}

type mailKey struct {
	src, dst, tag int
}

type mailSlot struct {
	val       any
	bytes     int
	sendClock float64
	hasData   bool
	recvClock float64
	hasRecv   bool
	done      float64
	// waiter is the parked task of whichever side arrived first. The
	// second arriver completes the transfer (either side can: the cost
	// depends only on the two entry clocks, the payload and the
	// sender's links), deletes the map entry — so the key is
	// immediately reusable — and readies the parked peer at the done
	// time; the peer reads the slot through its retained pointer.
	waiter *sim.Task
}

func (c *Cluster) mailboxInstance() *mailbox {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mail == nil {
		c.mail = &mailbox{slots: map[mailKey]*mailSlot{}}
	}
	return c.mail
}

// Send delivers val to rank dst under the given tag, blocking until
// the receiver posts the matching Recv. bytes sizes the payload for
// the cost model; the link tier is derived from the endpoints. Under a
// contention topology the transfer is a flow through the sender's
// physical links and shares them with whatever else is in flight.
func Send[T any](c *Cluster, r *Rank, dst, tag int, val T, bytes int) {
	if dst < 0 || dst >= c.N {
		panic(fmt.Sprintf("cluster: Send to rank %d of %d", dst, c.N))
	}
	if dst == r.ID {
		panic("cluster: Send to self; use a local variable")
	}
	slot := c.mailboxInstance().arrive(c, r, mailKey{src: r.ID, dst: dst, tag: tag}, true, val, bytes)
	r.countOp("send", int64(bytes))
	r.countLink(c.Model.linkBetween(r.ID, dst), int64(bytes))
	if slot.done > r.clock {
		r.advance(slot.done-r.clock, true)
	}
}

// Recv blocks until the matching Send from src under tag arrives and
// returns its value. src is validated up front like Send validates dst:
// an out-of-range src can never be matched, so it panics immediately
// instead of silently blocking forever.
func Recv[T any](c *Cluster, r *Rank, src, tag int) T {
	if src < 0 || src >= c.N {
		panic(fmt.Sprintf("cluster: Recv from rank %d of %d", src, c.N))
	}
	if src == r.ID {
		panic("cluster: Recv from self; use a local variable")
	}
	slot := c.mailboxInstance().arrive(c, r, mailKey{src: src, dst: r.ID, tag: tag}, false, nil, 0)
	if slot.done > r.clock {
		r.advance(slot.done-r.clock, true)
	}
	return slot.val.(T)
}

// arrive records one side of the transfer under key — the sender's
// payload (send) or the receiver's post — and returns the completed
// slot. The first arriver parks until the second completes the
// transfer. A duplicate side panics after releasing the mailbox, so
// the failure surfaces instead of wedging every other rank's Send/Recv
// behind the mutex (the same guarantee the collective deadlock detector
// makes by poisoning its rendezvous).
func (mb *mailbox) arrive(c *Cluster, r *Rank, key mailKey, send bool, val any, bytes int) *mailSlot {
	mb.mu.Lock()
	slot := mb.slots[key]
	if slot == nil {
		slot = &mailSlot{}
		mb.slots[key] = slot
	}
	if send {
		if slot.hasData {
			mb.mu.Unlock()
			panic(fmt.Sprintf("cluster: duplicate Send for %+v", key))
		}
		slot.val, slot.bytes, slot.sendClock, slot.hasData = val, bytes, r.clock, true
	} else {
		if slot.hasRecv {
			mb.mu.Unlock()
			panic(fmt.Sprintf("cluster: duplicate Recv for %+v", key))
		}
		slot.recvClock, slot.hasRecv = r.clock, true
	}
	if !slot.hasData || !slot.hasRecv {
		slot.waiter = r.task
		mb.mu.Unlock()
		r.task.Park() // the completer fills the slot before readying us
		return slot
	}
	defer mb.mu.Unlock()
	// Second arriver: entry is the later of the two arrival clocks;
	// under a contention topology the payload flows through the
	// sender's physical links.
	entry := max(slot.sendClock, slot.recvClock)
	link := c.Model.linkBetween(key.src, key.dst)
	if ct := c.cont; ct != nil {
		fin := ct.transact([]flowReq{{
			start: c.Model.wireEntry(entry, link),
			bytes: float64(slot.bytes),
			links: ct.linksFor(key.src, link),
		}})
		slot.done = fin[0]
	} else {
		slot.done = c.Model.wireDone(entry, link, int64(slot.bytes))
	}
	delete(mb.slots, key)
	if slot.waiter != nil {
		c.sched.Ready(slot.waiter, slot.done)
	}
	return slot
}
