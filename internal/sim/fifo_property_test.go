package sim

import (
	"math/rand/v2"
	"testing"

	"wormnet/internal/message"
	"wormnet/internal/topology"
)

// msgFIFO is the source queue the engine used until a waiting message became
// a record: a FIFO of message pointers over one slice per node, with an
// explicit head index, a rewind whenever the queue empties and a compaction
// when the dead prefix dominates. It is kept as the reference model the record
// queue is tested against.
type msgFIFO struct {
	buf  []*message.Message
	head int
}

func (q *msgFIFO) Len() int                  { return len(q.buf) - q.head }
func (q *msgFIFO) Empty() bool               { return q.head == len(q.buf) }
func (q *msgFIFO) Front() *message.Message   { return q.buf[q.head] }
func (q *msgFIFO) At(i int) *message.Message { return q.buf[q.head+i] }

func (q *msgFIFO) Push(m *message.Message) {
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head > 32 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, m)
}

func (q *msgFIFO) PopFront() *message.Message {
	m := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return m
}

// PushFront prepends ms before the current front, preserving ms's order.
func (q *msgFIFO) PushFront(ms []*message.Message) {
	if len(ms) <= q.head {
		q.head -= len(ms)
		copy(q.buf[q.head:], ms)
		return
	}
	merged := make([]*message.Message, 0, len(ms)+q.Len())
	merged = append(merged, ms...)
	merged = append(merged, q.buf[q.head:]...)
	q.buf = merged
	q.head = 0
}

func (q *msgFIFO) Clear() {
	clear(q.buf)
	q.buf = q.buf[:0]
	q.head = 0
}

// TestFIFOPropertyNeverReorders drives a handful of record queues sharing one
// arena — as every node's queue shares the engine's — with random operation
// sequences against msgFIFO, and asserts after every operation that each queue
// holds exactly the model's messages in the model's order. The arena hands
// freed slots to whichever queue pushes next, so a queue's records end up
// scattered among the others'; this test pins that none of that ever reorders,
// loses or cross-wires a pending message — the paper's injection policy (older
// messages first, retries ahead of fresh traffic) depends on it.
func TestFIFOPropertyNeverReorders(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 99))
	const queues = 5
	var arena recordArena
	var qs [queues]srcQueue
	var models [queues]msgFIFO
	nextID := message.ID(0)
	mk := func() *message.Message {
		m := message.New(nextID, 0, topology.NodeID(1+rng.IntN(9)), 1+rng.IntN(20), int64(rng.IntN(1000)))
		nextID++
		return m
	}
	// rec is the record of m.
	rec := func(m *message.Message) queued {
		return queued{id: m.ID, gen: m.GenTime, dst: m.Dst}
	}
	same := func(r *queued, m *message.Message) bool {
		want := rec(m)
		want.next = r.next
		return *r == want
	}
	check := func(op string, k int) {
		t.Helper()
		for k := range qs {
			q, model := &qs[k], &models[k]
			if q.Len() != model.Len() || q.Empty() != model.Empty() {
				t.Fatalf("after %s on queue %d: queue %d has Len=%d Empty=%v, model %d/%v",
					op, k, k, q.Len(), q.Empty(), model.Len(), model.Empty())
			}
			i := 0
			arena.each(q, q.n, func(r *queued) {
				if !same(r, model.At(i)) {
					t.Fatalf("after %s on queue %d: queue %d holds %+v at %d, model has msg %d",
						op, k, k, *r, i, model.At(i).ID)
				}
				i++
			})
			if i != model.Len() {
				t.Fatalf("after %s on queue %d: walked %d records of queue %d, model holds %d", op, k, i, k, model.Len())
			}
			if !q.Empty() && !same(arena.front(q), model.Front()) {
				t.Fatalf("after %s on queue %d: front of queue %d is msg %d, model front is msg %d",
					op, k, k, arena.front(q).id, model.Front().ID)
			}
		}
	}
	live := 0
	for op := 0; op < 50000; op++ {
		k := rng.IntN(queues)
		q, model := &qs[k], &models[k]
		switch r := rng.IntN(100); {
		case r < 45: // push a fresh message at the back
			m := mk()
			arena.push(q, rec(m))
			model.Push(m)
			live++
			check("Push", k)
		case r < 85: // pop the front, then give the slot back
			if model.Empty() {
				continue
			}
			slot := q.pop(arena.recs)
			if want := model.PopFront(); !same(&arena.recs[slot], want) {
				t.Fatalf("op %d: popped %+v, model front was msg %d", op, arena.recs[slot], want.ID)
			}
			check("pop before release", k)
			arena.release(slot)
			live--
			check("PopFront", k)
		case r < 97: // prepend a retry batch, order preserved
			batch := make([]*message.Message, rng.IntN(4))
			for i := range batch {
				batch[i] = mk()
			}
			for i := len(batch) - 1; i >= 0; i-- {
				arena.pushFront(q, rec(batch[i]))
			}
			model.PushFront(batch)
			live += len(batch)
			check("PushFront", k)
		default: // drain: the engine has no other way to clear one queue
			for !q.Empty() {
				arena.release(q.pop(arena.recs))
				live--
			}
			model.Clear()
			check("Clear", k)
		}
		// The arena never holds more slots than were live at once.
		if free := arena.freeSlots(); len(arena.recs)-free != live {
			t.Fatalf("op %d: %d slots, %d free, but %d records live", op, len(arena.recs), free, live)
		}
	}
	arena.reset()
	if len(arena.recs) != 0 || arena.freeSlots() != 0 {
		t.Fatal("reset left slots behind")
	}
}

// freeSlots walks the arena's free list.
func (a *recordArena) freeSlots() (n int) {
	for i := a.free; i != 0; i = a.recs[i-1].next + 1 {
		n++
	}
	return n
}
