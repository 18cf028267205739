// Package router provides the building blocks of the wormhole router
// microarchitecture: fixed-capacity flit FIFOs (virtual-channel buffers),
// sender-side virtual-channel allocation state, and round-robin arbiters.
//
// The cycle-level composition of these pieces — virtual-channel allocation,
// separable switch allocation and two-phase flit movement — lives in
// internal/sim; this package holds the stateful primitives and their
// invariants.
package router

import (
	"fmt"

	"wormnet/internal/message"
)

// Buffer is a fixed-capacity FIFO of flits: one virtual-channel buffer. It
// stores a run, not flits: wormhole switching gives a virtual channel to one
// message from head to tail, and a channel is only allocated while its
// buffer is empty, so the contents are always consecutive flits of a single
// message — owner, first sequence number, length, and whether the last flit
// is the tail. Push enforces exactly that; Front, Pop and At derive the flit.
// The zero value is not usable; construct with NewBuffer, or initialise a
// value in place with Init (the simulation engine stores buffers by value
// in one contiguous arena, so the hot path walks them linearly).
type Buffer struct {
	msg   *message.Message // owner of the run; stale while size == 0
	first uint16           // sequence number of the front flit
	size  uint16
	cap   uint16
	tail  bool // the last buffered flit is the message's tail
}

// The limits of a Buffer's 16-bit counters, which keep it at 16 bytes: it
// holds at most MaxDepth flits, of a message of at most MaxMessageLen
// (sequence numbers 0 to MaxMessageLen-1). Init and Push refuse anything more.
const (
	MaxDepth      = 1<<16 - 1
	MaxMessageLen = 1 << 16
)

// NewBuffer returns an empty buffer holding at most capacity flits.
func NewBuffer(capacity int) *Buffer {
	b := &Buffer{}
	b.Init(capacity)
	return b
}

// Init (re-)initialises b in place as an empty buffer of the given capacity.
func (b *Buffer) Init(capacity int) {
	if capacity < 1 || capacity > MaxDepth {
		panic(fmt.Sprintf("router: buffer capacity %d outside [1, %d]", capacity, MaxDepth))
	}
	*b = Buffer{cap: uint16(capacity)}
}

// Len returns the number of buffered flits.
func (b *Buffer) Len() int { return int(b.size) }

// Empty reports whether the buffer holds no flits.
func (b *Buffer) Empty() bool { return b.size == 0 }

// Full reports whether the buffer is at capacity.
func (b *Buffer) Full() bool { return b.size == b.cap }

// Push appends a flit at the back. It panics if the buffer is full (the
// simulator's credit check must prevent that), if the flit's Head flag
// disagrees with Seq == 0, if its sequence number is not below
// MaxMessageLen, or if the flit does not extend the buffered run: another
// message's flit, a sequence number other than the next one, or any flit
// behind the tail. Tail is taken on trust — checking it against the
// message length would touch the message on every push — so whoever builds
// flits from outside data (a snapshot) validates it first.
func (b *Buffer) Push(f message.Flit) {
	if b.size == b.cap {
		panic("router: push into full buffer")
	}
	if f.Head != (f.Seq == 0) || uint32(f.Seq) >= MaxMessageLen {
		panic("router: pushed flit's Head flag disagrees with its sequence number, or the number is MaxMessageLen or more")
	}
	if b.size == 0 {
		b.msg, b.first = f.Msg, uint16(f.Seq)
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
// The owner is not cleared when the last flit leaves: it is never read while
// the buffer is empty, and the stale reference keeps nothing extra alive —
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
