package router

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"wormnet/internal/message"
)

func msg(id message.ID, length int) *message.Message {
	return message.New(id, 0, 1, length, 0)
}

func TestBufferFIFO(t *testing.T) {
	var b Buffer
	m := msg(1, 4)
	for i := 0; i < 4; i++ {
		b.Push(message.MakeFlit(m, i))
	}
	if b.Len() != 4 {
		t.Fatalf("Len=%d", b.Len())
	}
	for i := 0; i < 4; i++ {
		f := b.Pop()
		if f.Seq != int32(i) {
			t.Fatalf("pop %d got seq %d", i, f.Seq)
		}
	}
	if !b.Empty() {
		t.Fatal("not empty after draining")
	}
}

func TestBufferWrapAround(t *testing.T) {
	const depth = 3
	var b Buffer
	m := msg(1, 100)
	seq := 0
	// Interleave pushes and pops to force wrap.
	for round := 0; round < 10; round++ {
		for b.Len() < depth {
			b.Push(message.MakeFlit(m, seq))
			seq++
		}
		b.Pop()
		b.Pop()
	}
	// Remaining flits must still come out in order.
	prev := int32(-1)
	for !b.Empty() {
		f := b.Pop()
		if f.Seq <= prev {
			t.Fatalf("order violated: %d after %d", f.Seq, prev)
		}
		prev = f.Seq
	}
}

// mustPanic runs f as a subtest that fails unless f panics.
func mustPanic(t *testing.T, name string, f func()) {
	t.Run(name, func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		f()
	})
}

func TestBufferPanics(t *testing.T) {
	// holding returns a buffer holding flits [from, to) of m.
	holding := func(m *message.Message, from, to int) *Buffer {
		b := new(Buffer)
		for s := from; s < to; s++ {
			b.Push(message.MakeFlit(m, s))
		}
		return b
	}
	m := msg(1, 6)
	mustPanic(t, "push full", func() {
		long := msg(2, MaxDepth+1)
		holding(long, 0, MaxDepth).Push(message.MakeFlit(long, MaxDepth))
	})
	mustPanic(t, "pop empty", func() { new(Buffer).Pop() })
	mustPanic(t, "front empty", func() { new(Buffer).Front() })
	// One row per way a flit can fail to extend the buffered run.
	mustPanic(t, "second message", func() { holding(m, 0, 2).Push(message.MakeFlit(msg(2, 6), 2)) })
	mustPanic(t, "same id, other message", func() { holding(m, 0, 2).Push(message.MakeFlit(msg(1, 6), 2)) })
	mustPanic(t, "sequence gap", func() { holding(m, 0, 2).Push(message.MakeFlit(m, 3)) })
	mustPanic(t, "sequence repeated", func() { holding(m, 0, 2).Push(message.MakeFlit(m, 1)) })
	mustPanic(t, "sequence descending", func() { holding(m, 2, 4).Push(message.MakeFlit(m, 1)) })
	mustPanic(t, "flit behind the tail", func() {
		holding(m, 4, 6).Push(message.Flit{Msg: m, Seq: 6})
	})
	mustPanic(t, "head flag on a body flit", func() {
		holding(m, 0, 2).Push(message.Flit{Msg: m, Seq: 2, Head: true})
	})
	mustPanic(t, "no head flag on flit 0", func() { new(Buffer).Push(message.Flit{Msg: m, Seq: 0}) })
	mustPanic(t, "reserve while holding flits", func() { holding(m, 0, 2).Reserve(msg(2, 6)) })
}

// A buffer is an owner, three 16-bit counters and the tail flag: 16 bytes,
// all of an input virtual channel of the engine.
func TestBufferStaysSmall(t *testing.T) {
	if got := unsafe.Sizeof(Buffer{}); got > 16 {
		t.Errorf("Buffer is %d bytes, ceiling 16", got)
	}
}

// The 16-bit counters bound what a buffer holds, and a value past them is
// refused, never wrapped: a flit beyond MaxDepth (TestBufferPanics' "push
// full"), a flit of a message longer than MaxMessageLen. Both maxima
// themselves work.
func TestBufferLimits(t *testing.T) {
	var deep Buffer
	long := msg(1, MaxMessageLen+1)
	for s := 0; s < MaxDepth; s++ {
		deep.Push(message.MakeFlit(long, s))
	}
	if deep.Len() != MaxDepth {
		t.Fatalf("a buffer of MaxDepth flits holds %d", deep.Len())
	}
	for deep.Len() > 1 {
		deep.Pop()
	}
	if f := deep.Front(); f.Seq != MaxDepth-1 {
		t.Fatalf("the last of MaxDepth flits is seq %d", f.Seq)
	}
	// The last flit of the longest message: pushed, popped, and nothing after it.
	var b Buffer
	b.Push(message.MakeFlit(long, MaxMessageLen-2))
	b.Push(message.MakeFlit(long, MaxMessageLen-1))
	b.Pop()
	if f := b.Front(); f.Seq != MaxMessageLen-1 || f.Head {
		t.Fatalf("front after a pop = %+v, want seq %d", f, MaxMessageLen-1)
	}
	mustPanic(t, "flit past MaxMessageLen extending a run", func() { b.Push(message.MakeFlit(long, MaxMessageLen)) })
	mustPanic(t, "flit past MaxMessageLen into an empty buffer", func() {
		new(Buffer).Push(message.MakeFlit(long, MaxMessageLen))
	})
}

func TestBufferFrontMessage(t *testing.T) {
	var b Buffer
	if b.FrontMessage() != nil {
		t.Fatal("empty buffer has a front message")
	}
	m := msg(7, 2)
	b.Push(message.MakeFlit(m, 0))
	if b.FrontMessage() != m {
		t.Fatal("front message mismatch")
	}
	if b.Front().Msg.ID != 7 {
		t.Fatal("front flit mismatch")
	}
}

// Msg names the run's message while the buffer is empty too — drained or
// reserved — and Note lives until a head flit starts the next message.
func TestBufferMsgAndNote(t *testing.T) {
	var b Buffer
	if b.Msg() != nil {
		t.Fatal("a zero buffer names a message")
	}
	m1, m2, m3 := msg(1, 3), msg(2, 2), msg(3, 2)
	b.Push(message.MakeFlit(m1, 0))
	b.Note = 7
	b.Pop()
	b.Push(message.MakeFlit(m1, 1)) // a body flit arriving into the drained buffer
	if b.Msg() != m1 || b.Note != 7 {
		t.Fatalf("mid-message: Msg %v, Note %d; want msg 1 and 7", b.Msg(), b.Note)
	}
	b.Pop()
	if !b.Empty() || b.Msg() != m1 || b.FrontMessage() != nil {
		t.Fatalf("drained: Msg %v, FrontMessage %v", b.Msg(), b.FrontMessage())
	}
	b.Reserve(m2)
	if !b.Empty() || b.Msg() != m2 || b.Note != 7 {
		t.Fatalf("reserved: Len %d, Msg %v, Note %d", b.Len(), b.Msg(), b.Note)
	}
	b.Push(message.MakeFlit(m3, 0))
	if b.Msg() != m3 || b.Note != 0 {
		t.Fatalf("a new head: Msg %v, Note %d; want msg 3 and 0", b.Msg(), b.Note)
	}
}

// A buffer used to accept interleaved flits of two messages, and
// RemoveMessage picked one message's out from between the other's. That
// state no longer exists: the interleaving is refused where it would arise,
// at Push, and RemoveMessage is all or nothing.
func TestBufferRemoveMessage(t *testing.T) {
	var b Buffer
	m1, m2 := msg(1, 4), msg(2, 2)
	b.Push(message.MakeFlit(m1, 0))
	mustPanic(t, "second message's flit behind the first's", func() { b.Push(message.MakeFlit(m2, 0)) })
	b.Push(message.MakeFlit(m1, 1))
	if got := b.RemoveMessage(2); got != 0 || b.Len() != 2 {
		t.Fatalf("removing a message the buffer does not hold: removed %d, Len=%d", got, b.Len())
	}
	if f := b.Front(); f.Msg != m1 || f.Seq != 0 {
		t.Fatalf("front flit disturbed: %v", f)
	}
	if got := b.RemoveMessage(1); got != 2 {
		t.Fatalf("removed %d want 2", got)
	}
	if !b.Empty() || b.FrontMessage() != nil {
		t.Fatalf("Len=%d after removing the owner", b.Len())
	}
	if got := b.RemoveMessage(1); got != 0 {
		t.Fatalf("removed %d from empty", got)
	}
	// The torn-out message left mid-run; the next one starts cleanly.
	b.Push(message.MakeFlit(m2, 0))
	b.Push(message.MakeFlit(m2, 1))
	if f := b.Pop(); f.Msg != m2 || !f.Head || f.Tail {
		t.Fatalf("wrong flit %v", f)
	}
	if f := b.Pop(); f.Msg != m2 || f.Head || !f.Tail {
		t.Fatalf("wrong flit %v", f)
	}
}

// Property: the run-length Buffer is indistinguishable from the per-flit
// ring it replaced (ring_reference_test.go) over everything the simulator
// can do to a virtual-channel buffer: a message streams through — pushes
// and pops interleaved, the buffer draining and refilling mid-message —
// its tail leaves and another message moves in, or recovery tears it out
// and the channel is reused. Every observer is compared after every step.
func TestBufferMatchesModel(t *testing.T) {
	for capacity := 1; capacity <= 8; capacity++ {
		rng := rand.New(rand.NewSource(int64(capacity)))
		b, ref := new(Buffer), newRingBuffer(capacity)
		nextID := message.ID(1)
		m, seq := msg(nextID, 1+rng.Intn(12)), 0
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // the upstream sends the next flit, credit allowing
				if seq == int(m.Length) && b.Empty() {
					nextID++
					m, seq = msg(nextID, 1+rng.Intn(12)), 0
				}
				if seq < int(m.Length) && b.Len() < capacity {
					f := message.MakeFlit(m, seq)
					seq++
					b.Push(f)
					ref.Push(f)
				}
			case op < 8:
				if !b.Empty() {
					if got, want := b.Pop(), ref.Pop(); got != want {
						t.Fatalf("cap %d step %d: Pop %v, ring says %v", capacity, step, got, want)
					}
				}
			case op == 8: // recovery looks for a message the buffer does not hold
				if got, want := b.RemoveMessage(nextID+1), ref.RemoveMessage(nextID+1); got != want {
					t.Fatalf("cap %d step %d: RemoveMessage(other) %d, ring says %d", capacity, step, got, want)
				}
			default: // recovery tears the message out; the channel starts over
				if got, want := b.RemoveMessage(m.ID), ref.RemoveMessage(m.ID); got != want {
					t.Fatalf("cap %d step %d: RemoveMessage %d, ring says %d", capacity, step, got, want)
				}
				seq = int(m.Length)
			}
			if b.Len() != ref.Len() || b.Empty() != ref.Empty() || (b.Len() == capacity) != ref.Full() {
				t.Fatalf("cap %d step %d: Len/Empty %d/%v, ring says %d/%v (full %v)", capacity, step,
					b.Len(), b.Empty(), ref.Len(), ref.Empty(), ref.Full())
			}
			if b.FrontMessage() != ref.FrontMessage() {
				t.Fatalf("cap %d step %d: FrontMessage %v, ring says %v", capacity, step, b.FrontMessage(), ref.FrontMessage())
			}
			if !b.Empty() && b.Front() != ref.Front() {
				t.Fatalf("cap %d step %d: Front %v, ring says %v", capacity, step, b.Front(), ref.Front())
			}
			// Every flit, popped from copies.
			c, r := *b, *ref
			r.flits = slices.Clone(ref.flits)
			for i := 0; !r.Empty(); i++ {
				if got, want := c.Pop(), r.Pop(); got != want {
					t.Fatalf("cap %d step %d: flit %d %v, ring says %v", capacity, step, i, got, want)
				}
			}
		}
	}
}

// A zero Buffer is an empty one, whatever the value it replaces held.
func TestBufferReset(t *testing.T) {
	var b Buffer
	m := msg(1, 2)
	b.Push(message.MakeFlit(m, 0))
	b.Push(message.MakeFlit(m, 1)) // tail buffered
	b.Note = 3
	b = Buffer{}
	if !b.Empty() || b.FrontMessage() != nil || b.Msg() != nil || b.Note != 0 {
		t.Fatalf("after reset: Len=%d Msg=%v Note=%d", b.Len(), b.Msg(), b.Note)
	}
	b.Push(message.MakeFlit(msg(2, 4), 0))
	if f := b.Front(); f.Msg.ID != 2 || !f.Head || f.Tail {
		t.Fatalf("wrong flit after reset: %v", f)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	a := NewRoundRobin(4)
	counts := make([]int, 4)
	// All requesters always want; each must win exactly 1/4 of the grants.
	for i := 0; i < 400; i++ {
		g := a.Grant(func(int) bool { return true })
		counts[g]++
	}
	for i, c := range counts {
		if c != 100 {
			t.Errorf("requester %d won %d/400", i, c)
		}
	}
}

func TestRoundRobinSkipsNonRequesters(t *testing.T) {
	a := NewRoundRobin(3)
	g := a.Grant(func(i int) bool { return i == 2 })
	if g != 2 {
		t.Fatalf("granted %d want 2", g)
	}
	if g := a.Grant(func(int) bool { return false }); g != -1 {
		t.Fatalf("granted %d for no requests", g)
	}
	if a.N() != 3 {
		t.Error("N")
	}
}

func TestRoundRobinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRoundRobin(0)
}

// Property: under persistent requests from a subset, grants rotate within
// the subset (no starvation).
func TestRoundRobinNoStarvation(t *testing.T) {
	f := func(mask uint8) bool {
		want := func(i int) bool { return mask&(1<<i) != 0 }
		a := NewRoundRobin(8)
		active := 0
		for i := 0; i < 8; i++ {
			if want(i) {
				active++
			}
		}
		if active == 0 {
			return a.Grant(want) == -1
		}
		counts := make([]int, 8)
		for i := 0; i < 8*active; i++ {
			g := a.Grant(want)
			if g < 0 || !want(g) {
				return false
			}
			counts[g]++
		}
		for i := 0; i < 8; i++ {
			if want(i) && counts[i] != 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
