package sim

import (
	"math/bits"
	"slices"

	"wormnet/internal/message"
	"wormnet/internal/topology"
	"wormnet/internal/traffic"
)

// A source queue (FIFO; the paper: pending messages before newer ones) is two
// runs of waiting messages, front to back:
//   - an explicit prefix of records (queued) in the engine's record arena:
//     what a restored backlog, Inject, a fault retry, a run that cannot
//     replay its sources (fault schedules, scripted or replayed sources) and
//     a short queue (deriveAfter) queue;
//   - a derived suffix (suffix): the messages the node's own generator drew
//     since, kept as the generator's stream position and the ids alone. Their
//     destinations and generation cycles are in the stream, and drawing them
//     again is what popping one does.
//
// Beyond saturation nearly every live message waits, and all that ever looks
// at one is the injection gate reading the head's destination, so the suffix
// stores one 16-bit id delta a message: about 2 bytes, against a record's 24.

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
// generator drew in a row, with nothing explicit queued behind them. Only the
// head is held whole — the gate, HeadWait and the throttle trace read it every
// cycle. The messages behind it are the generator's next draws from cur, and
// their ids the deltas between consecutive ones, in the chunk arena from rd
// (written at wr). A suffix is a slot of suffixArena, taken when a message
// the node's generator drew is the first to derive (commitGenerate) and given
// back when the suffix empties; nodes without one hold no stream state.
type suffix struct {
	cur  traffic.Cursor // the generator's stream position just after head was drawn
	head queued         // the front derived message; next chains free slots
	last message.ID     // the newest message's id, the next delta's base
	n    int32          // derived messages, head included
	// Positions in the chunk arena (chunk*chunkWords + offset), -1 until the
	// first delta: rd is the next word to read, wr the next to write, and
	// hold the oldest chunk still held — a serial commit frees the chunks
	// rd has left (suffixArena.trim).
	rd, wr, hold int32
}

// The chunk arena. A chunk is chunkWords 16-bit words, 64 bytes: deltaWords
// id deltas, then the next chunk's index in two words. A delta is the id less
// the one before it; one a word cannot hold below escape is written as escape
// and the whole id in the next four words. Chunks are cut from pages that grow fourfold from
// firstPage chunks (1 kB) to maxPage (64 kB) and then stay there: a few
// allocations a run, never a copy, and one partly used page.
const (
	chunkWords = 32
	deltaWords = chunkWords - 2
	escape     = 0xFFFF
	firstPage  = 16   // chunks of page 0
	maxPage    = 1024 // chunks of every page from pageCap on
	pageCap    = 3    // firstPage << (2*pageCap) == maxPage
	geometric  = firstPage * (1<<(2*pageCap) - 1) / 3
)

// suffixArena holds the derived suffixes of every source queue of an engine
// and their id deltas. Like recordArena it is engine-global: a shard section
// only reads it (and writes the slots of its own nodes); taking and giving
// back slots and chunks belongs to serial contexts.
type suffixArena struct {
	slots  []suffix
	free   int32 // 1 + the first free slot (chained through head.next), 0 when none
	pages  [][]uint16
	chunks int32 // chunks cut from pages so far
	freeCh int32 // 1 + the first free chunk (chained through its link), 0 when none
}

// locate returns chunk c's page and its first word there.
func locate(c int32) (page, at int) {
	if c < geometric {
		// Page k starts at chunk firstPage*(4^k-1)/3.
		page = (bits.Len32(uint32(c/firstPage*3+1)) - 1) / 2
		return page, int(c-firstPage*(1<<(2*page)-1)/3) * chunkWords
	}
	c -= geometric
	return pageCap + int(c/maxPage), int(c%maxPage) * chunkWords
}

// word returns the word at position p.
func (a *suffixArena) word(p int32) *uint16 {
	page, at := locate(p / chunkWords)
	return &a.pages[page][at+int(p%chunkWords)]
}

func (a *suffixArena) link(c int32) int32 {
	p := c*chunkWords + deltaWords
	return int32(uint32(*a.word(p)) | uint32(*a.word(p + 1))<<16)
}

func (a *suffixArena) setLink(c, next int32) {
	p := c*chunkWords + deltaWords
	*a.word(p), *a.word(p + 1) = uint16(next), uint16(uint32(next)>>16)
}

func (a *suffixArena) newChunk() int32 {
	if a.freeCh != 0 {
		c := a.freeCh - 1
		a.freeCh = a.link(c) + 1
		return c
	}
	c := a.chunks
	if page, _ := locate(c); page == len(a.pages) {
		if a.pages == nil {
			a.pages = make([][]uint16, 0, 16)
		}
		a.pages = append(a.pages, make([]uint16, firstPage<<(2*min(page, pageCap))*chunkWords))
	}
	a.chunks++
	return c
}

func (a *suffixArena) freeChunk(c int32) {
	a.setLink(c, a.freeCh-1)
	a.freeCh = c + 1
}

// put appends w to s's deltas, taking a chunk when s has none or its last is
// full.
func (a *suffixArena) put(s *suffix, w uint16) {
	switch {
	case s.wr < 0:
		c := a.newChunk()
		s.rd, s.wr, s.hold = c*chunkWords, c*chunkWords, c
	case s.wr%chunkWords == deltaWords:
		c := a.newChunk()
		a.setLink(s.wr/chunkWords, c)
		s.wr = c * chunkWords
	}
	*a.word(s.wr) = w
	s.wr++
}

// get reads the word at *p and advances *p past it. It only reads.
func (a *suffixArena) get(p *int32) uint16 {
	if *p%chunkWords == deltaWords {
		*p = a.link(*p/chunkWords) * chunkWords
	}
	w := *a.word(*p)
	*p++
	return w
}

// putID files id as the next message of s.
func (a *suffixArena) putID(s *suffix, id message.ID) {
	if d := id - s.last; d > 0 && d < escape {
		a.put(s, uint16(d))
	} else {
		a.put(s, escape)
		for k := 0; k < 64; k += 16 {
			a.put(s, uint16(uint64(id)>>k))
		}
	}
	s.last = id
	s.n++
}

// getID reads the id that follows prev from the deltas at *p.
func (a *suffixArena) getID(p *int32, prev message.ID) message.ID {
	w := a.get(p)
	if w != escape {
		return prev + message.ID(w)
	}
	var id uint64
	for k := 0; k < 64; k += 16 {
		id |= uint64(a.get(p)) << k
	}
	return message.ID(id)
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

// trim gives back the chunks s's reader has left — all of them once s is
// empty.
func (a *suffixArena) trim(s *suffix) {
	if s.hold < 0 {
		return
	}
	if s.n == 0 {
		for c, last := s.hold, s.wr/chunkWords; ; {
			next := a.link(c)
			a.freeChunk(c)
			if c == last {
				break
			}
			c = next
		}
		s.rd, s.wr, s.hold = -1, -1, -1
		return
	}
	for reading := s.rd / chunkWords; s.hold != reading; {
		next := a.link(s.hold)
		a.freeChunk(s.hold)
		s.hold = next
	}
}

// reset empties the arena, keeping its pages; every node's sfx must be zeroed
// as well.
func (a *suffixArena) reset() {
	a.slots = a.slots[:0]
	a.free, a.chunks, a.freeCh = 0, 0, 0
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
// head, cursor and read position — so a shard section may pop its own nodes'
// queues; the record's slot and the chunks and suffix slot a pop leaves go
// back when a serial context builds the message (materialise).
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
// scratch copy — and replays the next message into its place. It reads the
// chunk arena and writes only s.
func (e *Engine) popDerived(nd *node, s *suffix) queued {
	r := s.head
	if s.n--; s.n > 0 {
		g, at, ok := nd.replayer().Replay(&s.cur, e.now)
		if !ok {
			panic("sim: a derived source queue holds more messages than its generator drew")
		}
		s.head = queued{id: e.suffixes.getID(&s.rd, r.id), gen: at, dst: g.Dst}
	}
	return r
}

// settle gives back what pops in a section left of nd's suffix: the chunks its
// reader has passed, and the slot once it is empty. Serial contexts only.
func (e *Engine) settle(nd *node) {
	s := e.suffixOf(nd)
	if s == nil {
		return
	}
	e.suffixes.trim(s)
	if s.n == 0 {
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
	*s = suffix{cur: *start, last: id, n: 1, rd: -1, wr: -1, hold: -1}
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

// eachWaiting calls f on every message waiting at nd, front to back: the
// records, then the suffix, replayed on a scratch copy. f must not keep its
// argument. Serial contexts only.
func (e *Engine) eachWaiting(nd *node, f func(*queued)) {
	s := e.suffixOf(nd)
	if s == nil {
		e.waiting.each(&nd.queue, nd.queue.n, f)
		return
	}
	e.waiting.each(&nd.queue, nd.queue.n-s.n, f)
	w := &e.walk
	*w = *s
	for w.n > 0 {
		f(&w.head)
		e.popDerived(nd, w)
	}
}
