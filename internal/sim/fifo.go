package sim

import (
	"slices"

	"wormnet/internal/message"
	"wormnet/internal/topology"
	"wormnet/internal/traffic"
)

// A source queue (FIFO; the paper: pending messages before newer ones) is two
// runs of waiting messages, front to back:
//   - an explicit prefix of records (queued) in the engine's record arena:
//     what a restored backlog of an older layout, Inject, a fault retry, a
//     run that cannot replay its sources (fault schedules, scripted or
//     replayed sources) and a short queue (deriveAfter) queue;
//   - a derived suffix (suffix): the messages the node's own generator drew
//     since, kept as the generator's stream position, the head and a count.
//     Their destinations and generation cycles are in the stream, and drawing
//     them again is what popping one does; their ids are the node's newest,
//     one sequence number apart (Engine.newID), so the head's id and the
//     count give them all.
//
// Beyond saturation nearly every live message waits, and all that ever looks
// at one is the injection gate reading the head's destination, so a node's
// backlog costs one suffix slot, whatever its length, against a record's 24
// bytes a message.

// queued is one waiting message as the queue hands it out: a record of the
// explicit prefix, or the derived suffix's head. It is a small pointer-free
// value, and the message.Message it stands for is built only when an
// injection channel admits it (Engine.materialise). It holds only what cannot
// be derived; the rest is read where it is needed:
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

// srcQueue is one node's source queue: n counts its waiting messages, the
// explicit records and the derived suffix (node.sfx) together, and head and
// tail are the ends of the records' chain, meaningless while there is none.
// set caches the candidate-set id of (this node, the front message's dst), 0
// until the injection gate looks it up: a denied head is decided again every
// cycle, and then touches neither the record arena nor the class table.
// Whatever changes the front (pop, pushFront) or the table (reconfigure)
// zeroes it.
type srcQueue struct {
	head, tail, n int32
	set           uint16
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
// engine-global: everything but reading recs belongs to serial contexts. Its
// push and pushFront take a queue without a derived suffix: Inject spills one
// first (Engine.spill), and fault runs, which alone push to the front, derive
// nothing.
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

// each calls f on the first n records of q, front to back.
func (a *recordArena) each(q *srcQueue, n int32, f func(*queued)) {
	for i, k := q.head, int32(0); k < n; k++ {
		f(&a.recs[i])
		i = a.recs[i].next
	}
}

// reset empties the arena; every queue over it must be zeroed as well.
func (a *recordArena) reset() {
	a.recs = a.recs[:0]
	a.free = 0
}

// suffix is the derived part of one node's source queue: n messages its
// generator drew in a row, with nothing explicit queued behind them — the
// node's n newest, so the id of the one i behind the head is the head's plus
// i node counts. Only the head is held whole — the gate, HeadWait and the
// throttle trace read it every cycle. The messages behind it are the
// generator's next draws from cur. A suffix is a slot of suffixArena, taken
// when a message the node's generator drew is the first to derive
// (commitGenerate) and given back when the suffix empties; nodes without one
// hold no stream state.
type suffix struct {
	cur  traffic.Cursor // the generator's stream position just after head was drawn
	head queued         // the front derived message; next chains free slots
	n    int32          // derived messages, head included
}

// suffixArena holds the derived suffixes of every source queue of an engine.
// Like recordArena it is engine-global: a shard section only reads it (and
// writes the slots of its own nodes); taking and giving back slots belongs to
// serial contexts.
type suffixArena struct {
	slots []suffix
	free  int32 // 1 + the first free slot (chained through head.next), 0 when none
}

// newSlot takes a slot for a suffix the caller fills, of at most nodes.
func (a *suffixArena) newSlot(nodes int) int32 {
	if a.free != 0 {
		i := a.free - 1
		a.free = a.slots[i].head.next + 1
		return i
	}
	if len(a.slots) == cap(a.slots) {
		// Fourfold up to a slot a node, the most there can be: a backlog
		// takes one at every node, in few allocations.
		a.slots = slices.Grow(a.slots, min(max(16, 3*len(a.slots)), nodes-len(a.slots)))
	}
	a.slots = append(a.slots, suffix{})
	return int32(len(a.slots) - 1)
}

// reset empties the arena; every node's sfx must be zeroed as well.
func (a *suffixArena) reset() {
	a.slots = a.slots[:0]
	a.free = 0
}

// suffixOf returns nd's derived suffix, nil when it has none.
func (e *Engine) suffixOf(nd *node) *suffix {
	if nd.sfx == 0 {
		return nil
	}
	return &e.suffixes.slots[nd.sfx-1]
}

// replayer is nd's generator as a Replayer: every generator of an engine that
// derives (Engine.replay) is one.
func (nd *node) replayer() traffic.Replayer { return nd.src.(traffic.Replayer) }

// front returns the oldest message waiting at nd, whose queue is not empty.
func (e *Engine) front(nd *node) *queued {
	if s := e.suffixOf(nd); s != nil && s.n == nd.queue.n {
		return &s.head
	}
	return e.waiting.front(&nd.queue)
}

// pop takes the front message off nd's non-empty queue and returns it, its
// next naming its record's slot — -1 for a derived message, which has none.
// It moves nothing but nd's own state — the queue header, and the suffix's
// head and cursor — so a shard section may pop its own nodes' queues; the
// record's slot and the suffix slot a pop leaves go back when a serial
// context builds the message (materialise).
func (e *Engine) pop(nd *node) queued {
	q := &nd.queue
	if s := e.suffixOf(nd); s != nil && s.n == q.n {
		q.n--
		q.set = 0
		r := e.popDerived(nd, s)
		r.next = -1
		return r
	}
	i := q.pop(e.waiting.recs)
	r := e.waiting.recs[i]
	r.next = i
	return r
}

// popDerived takes the head off s, one of nd's suffixes — its own or a
// scratch copy — and replays the next message into its place, one node count
// of ids on. It writes only s.
func (e *Engine) popDerived(nd *node, s *suffix) queued {
	r := s.head
	if s.n--; s.n > 0 {
		g, at, ok := nd.replayer().Replay(&s.cur, e.now)
		if !ok {
			panic("sim: a derived source queue holds more messages than its generator drew")
		}
		s.head = queued{id: r.id + message.ID(len(e.nodes)), gen: at, dst: g.Dst}
	}
	return r
}

// settle gives back nd's suffix slot once pops in a section have emptied it.
// Serial contexts only.
func (e *Engine) settle(nd *node) {
	if s := e.suffixOf(nd); s != nil && s.n == 0 {
		s.head.next = e.suffixes.free - 1
		e.suffixes.free = nd.sfx
		nd.sfx = 0
	}
}

// startSuffix makes the message id, generated at nd this cycle and addressed
// to dst, the head of a new suffix: its cursor is start — the position nd's
// generator polled from this cycle — replayed past the skip messages of the
// poll queued ahead of it, and then past it. Serial contexts only.
func (e *Engine) startSuffix(nd *node, start *traffic.Cursor, skip int, id message.ID, dst topology.NodeID) {
	i := e.suffixes.newSlot(len(e.nodes))
	s := &e.suffixes.slots[i]
	*s = suffix{cur: *start, n: 1}
	var g traffic.Generated
	at, ok := int64(0), true
	for k := 0; k <= skip && ok; k++ {
		g, at, ok = nd.replayer().Replay(&s.cur, e.now)
	}
	if !ok || at != e.now || g.Dst != dst {
		panic("sim: a source's replayed stream differs from what it generated")
	}
	s.head = queued{id: id, gen: at, dst: dst}
	nd.sfx = i + 1
	nd.queue.n++
}

// spill turns nd's derived suffix into records at the back of its queue, so
// that an explicit record may follow. Serial contexts only.
func (e *Engine) spill(nd *node) {
	s := e.suffixOf(nd)
	q := &nd.queue
	q.n -= s.n // the records alone, which push extends
	for s.n > 0 {
		e.waiting.push(q, e.popDerived(nd, s))
	}
	e.settle(nd)
}

// records returns how many of the messages waiting at nd are records: those
// ahead of its derived suffix.
func (e *Engine) records(nd *node) int32 {
	if s := e.suffixOf(nd); s != nil {
		return nd.queue.n - s.n
	}
	return nd.queue.n
}

// eachWaiting calls f on every message waiting at nd, front to back: the
// records, then the suffix, replayed on a scratch copy. f must not keep its
// argument. Serial contexts only.
func (e *Engine) eachWaiting(nd *node, f func(*queued)) {
	e.waiting.each(&nd.queue, e.records(nd), f)
	s := e.suffixOf(nd)
	if s == nil {
		return
	}
	w := &e.walk
	*w = *s
	for w.n > 0 {
		f(&w.head)
		e.popDerived(nd, w)
	}
}
