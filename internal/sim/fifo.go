package sim

import (
	"wormnet/internal/message"
	"wormnet/internal/topology"
)

// queued is one message waiting in a source queue. Beyond saturation nearly
// every live message is one of these, and all that ever looks at it is the
// injection gate reading the head's destination — so a waiting message is a
// small pointer-free record, and the message.Message it stands for is built
// only when an injection channel admits it (Engine.materialise). The record
// holds only what cannot be derived; the rest is read where it is needed:
//   - built-ness: a record is built if and only if Engine.built files an
//     object under its id (Engine.Inject, a fault retry coming back through
//     the queue), and then every field of the message is the object's;
//   - length: a bare record's is cfg.MsgLen unless Engine.lengths files
//     another (scripted or replayed sources) — Engine.recordLen;
//   - measured: col.InWindow(gen), what OnGenerated said at generation.
type queued struct {
	id  message.ID
	gen int64 // generation cycle
	dst topology.NodeID
	// next links the records of one queue front to back — and the free slots
	// of the arena to each other. It is what lets every queue of the engine
	// share one slice: memory follows the number of waiting messages, not the
	// sum of each node's burst peak.
	next int32
}

// srcQueue is one node's source queue (FIFO; the paper: pending messages
// before newer ones): the ends and length of its chain in the record arena.
// head and tail mean nothing while n is 0. set caches the candidate-set id of
// (this node, the front record's dst), 0 until the injection gate looks it up:
// a denied head is decided again every cycle, and then touches neither the
// record arena nor the class table. Whatever changes the front (pop,
// pushFront) or the table (reconfigure) zeroes it.
type srcQueue struct {
	head, tail, n int32
	set           int32
}

// Len returns the number of waiting messages.
func (q *srcQueue) Len() int { return int(q.n) }

// Empty reports whether no message waits.
func (q *srcQueue) Empty() bool { return q.n == 0 }

// pop unlinks the front record and returns its slot. It only reads recs, so
// a shard section may pop its own nodes' queues; the slot stays allocated
// until a serial context hands it back (recordArena.release).
func (q *srcQueue) pop(recs []queued) int32 {
	i := q.head
	q.head = recs[i].next
	q.n--
	q.set = 0
	return i
}

// recordArena holds the records of every source queue of an engine. It is
// engine-global: everything but reading recs belongs to serial contexts.
type recordArena struct {
	recs []queued
	free int32 // 1 + the first free slot (chained through next), 0 when none
}

func (a *recordArena) alloc(r queued) int32 {
	if a.free == 0 {
		a.recs = append(a.recs, r)
		return int32(len(a.recs) - 1)
	}
	i := a.free - 1
	a.free = a.recs[i].next + 1
	a.recs[i] = r
	return i
}

// release returns slot i, popped from its queue earlier, to the free list.
func (a *recordArena) release(i int32) {
	a.recs[i].next = a.free - 1
	a.free = i + 1
}

// push appends r at the back of q.
func (a *recordArena) push(q *srcQueue, r queued) {
	i := a.alloc(r)
	if q.n == 0 {
		q.head = i
	} else {
		a.recs[q.tail].next = i
	}
	q.tail = i
	q.n++
}

// pushFront makes r the new front of q: retried traffic goes ahead of
// everything that was generated after it.
func (a *recordArena) pushFront(q *srcQueue, r queued) {
	r.next = q.head
	i := a.alloc(r)
	if q.n == 0 {
		q.tail = i
	}
	q.head = i
	q.n++
	q.set = 0
}

// front returns the oldest record of the non-empty queue q.
func (a *recordArena) front(q *srcQueue) *queued { return &a.recs[q.head] }

// each calls f on every record of q, front to back.
func (a *recordArena) each(q *srcQueue, f func(*queued)) {
	for i, k := q.head, int32(0); k < q.n; k++ {
		f(&a.recs[i])
		i = a.recs[i].next
	}
}

// reset empties the arena; every queue over it must be zeroed as well.
func (a *recordArena) reset() {
	a.recs = a.recs[:0]
	a.free = 0
}
