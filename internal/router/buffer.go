// Package router provides the building blocks of the wormhole router
// microarchitecture: flit FIFOs (virtual-channel buffers) and round-robin
// arbiters.
//
// The cycle-level composition of these pieces — virtual-channel allocation,
// separable switch allocation and two-phase flit movement — lives in
// internal/sim; this package holds the stateful primitives and their
// invariants.
package router

import (
	"wormnet/internal/message"
)

// Buffer is a FIFO of flits: one virtual-channel buffer. It stores a run, not
// flits: wormhole switching gives a virtual channel to one message from head
// to tail, and a channel is only allocated while its buffer is empty, so the
// contents are always consecutive flits of a single message — owner, first
// sequence number, length, and whether the last flit is the tail. Push
// enforces exactly that; Front, Pop and At derive the flit. A buffer does not
// know its depth: whoever fills it checks the count against its own (the
// simulator against Config.BufDepth). The zero value is an empty buffer.
type Buffer struct {
	msg   *message.Message // the run's message; while size == 0 the one last held or reserved
	first uint16           // sequence number of the front flit
	size  uint16
	// Note is 16 bits the owner keeps about the run's message; Push zeroes
	// it when a head flit starts a new message. The simulator caches the
	// header's routing-candidate set id here.
	Note uint16
	tail bool // the last buffered flit is the message's tail
}

// The limits of a Buffer's 16-bit counters, which keep it at 16 bytes: it
// holds at most MaxDepth flits, of a message of at most MaxMessageLen
// (sequence numbers 0 to MaxMessageLen-1). Push refuses anything more.
const (
	MaxDepth      = 1<<16 - 1
	MaxMessageLen = 1 << 16
)

// Len returns the number of buffered flits.
func (b *Buffer) Len() int { return int(b.size) }

// Empty reports whether the buffer holds no flits.
func (b *Buffer) Empty() bool { return b.size == 0 }

// Push appends a flit at the back. It panics if the buffer already holds
// MaxDepth flits (the simulator's credit check must keep it within its
// depth), if the flit's Head flag disagrees with Seq == 0, if its sequence
// number is not below MaxMessageLen, or if the flit does not extend the
// buffered run: another message's flit, a sequence number other than the
// next one, or any flit behind the tail. Tail is taken on trust — checking it
// against the message length would touch the message on every push — so
// whoever builds flits from outside data (a snapshot) validates it first.
func (b *Buffer) Push(f message.Flit) {
	if b.size == MaxDepth {
		panic("router: push into a buffer holding MaxDepth flits")
	}
	if f.Head != (f.Seq == 0) || uint32(f.Seq) >= MaxMessageLen {
		panic("router: pushed flit's Head flag disagrees with its sequence number, or the number is MaxMessageLen or more")
	}
	if b.size == 0 {
		b.msg, b.first = f.Msg, uint16(f.Seq)
		if f.Head {
			b.Note = 0
		}
	} else if f.Msg != b.msg || f.Seq != int32(b.first)+int32(b.size) || b.tail {
		panic("router: pushed flit does not extend the buffered run")
	}
	b.tail = f.Tail
	b.size++
}

// Front returns the flit at the front. It panics if the buffer is empty.
func (b *Buffer) Front() message.Flit {
	if b.size == 0 {
		panic("router: front of empty buffer")
	}
	return message.Flit{Msg: b.msg, Seq: int32(b.first), Head: b.first == 0, Tail: b.tail && b.size == 1}
}

// Pop removes and returns the front flit. It panics if the buffer is empty.
// The owner is not cleared when the last flit leaves: the channel may still
// be the message's (Msg), and the stale reference keeps nothing extra alive —
// the simulator pools and reuses messages rather than freeing them.
func (b *Buffer) Pop() message.Flit {
	f := b.Front()
	b.first++
	b.size--
	return f
}

// RemoveMessage removes every flit belonging to message id and returns how
// many were removed. It is used by deadlock recovery, which tears a
// presumed-deadlocked message out of the network. A buffer holds flits of
// one message, so this either empties it or removes nothing.
func (b *Buffer) RemoveMessage(id message.ID) int {
	if b.size == 0 || b.msg.ID != id {
		return 0
	}
	n := int(b.size)
	b.size = 0
	return n
}

// At returns the i-th buffered flit counting from the front (0 = front),
// without removing it. It panics if i is out of range. Snapshots and the
// invariant checker walk buffer contents with it, in FIFO order.
func (b *Buffer) At(i int) message.Flit {
	if i < 0 || i >= int(b.size) {
		panic("router: buffer index out of range")
	}
	seq := int32(b.first) + int32(i)
	return message.Flit{Msg: b.msg, Seq: seq, Head: seq == 0, Tail: b.tail && i == int(b.size)-1}
}

// FrontMessage returns the message owning the buffered flits, or nil if empty.
func (b *Buffer) FrontMessage() *message.Message {
	if b.size == 0 {
		return nil
	}
	return b.msg
}

// Msg returns the run's message even while the buffer is empty: the one whose
// flits it holds, else the one it last held or was reserved for (Reserve);
// nil for a buffer that has had neither. Between a header's arrival and its
// tail's departure that is the message the virtual channel belongs to, flits
// in it or not.
func (b *Buffer) Msg() *message.Message { return b.msg }

// Reserve makes m the message of the empty buffer, as if its flits had passed
// through: a channel holding part of m's path whose flits have all left or not
// arrived yet. It panics if the buffer holds flits.
func (b *Buffer) Reserve(m *message.Message) {
	if b.size != 0 {
		panic("router: reserving a buffer that holds flits")
	}
	b.msg = m
}
