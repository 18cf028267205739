package router

import (
	"fmt"

	"wormnet/internal/message"
)

// ringBuffer is the per-flit ring FIFO that Buffer was until it became a
// run: every flit stored as a record, nothing derived, nothing refused but
// overflow and underflow. It stays here as the reference model the
// run-length Buffer is checked against.
type ringBuffer struct {
	flits []message.Flit
	head  int32 // index of front element
	tail  int32 // index one past the back element (mod capacity)
	size  int32
}

func newRingBuffer(capacity int) *ringBuffer {
	return &ringBuffer{flits: make([]message.Flit, capacity)}
}

func (b *ringBuffer) Cap() int    { return len(b.flits) }
func (b *ringBuffer) Len() int    { return int(b.size) }
func (b *ringBuffer) Empty() bool { return b.size == 0 }
func (b *ringBuffer) Full() bool  { return int(b.size) == len(b.flits) }

func (b *ringBuffer) Push(f message.Flit) {
	if b.Full() {
		panic("ring: push into full buffer")
	}
	b.flits[b.tail] = f
	b.tail++
	if int(b.tail) == len(b.flits) {
		b.tail = 0
	}
	b.size++
}

func (b *ringBuffer) Front() message.Flit {
	if b.Empty() {
		panic("ring: front of empty buffer")
	}
	return b.flits[b.head]
}

func (b *ringBuffer) Pop() message.Flit {
	f := b.Front()
	b.head++
	if int(b.head) == len(b.flits) {
		b.head = 0
	}
	b.size--
	return f
}

func (b *ringBuffer) RemoveMessage(id message.ID) int {
	removed := 0
	n := int(b.size)
	for i := 0; i < n; i++ {
		f := b.Pop()
		if f.Msg.ID == id {
			removed++
			continue
		}
		b.Push(f)
	}
	return removed
}

func (b *ringBuffer) At(i int) message.Flit {
	if i < 0 || int32(i) >= b.size {
		panic(fmt.Sprintf("ring: buffer index %d out of range [0,%d)", i, b.size))
	}
	j := b.head + int32(i)
	if j >= int32(len(b.flits)) {
		j -= int32(len(b.flits))
	}
	return b.flits[j]
}

func (b *ringBuffer) FrontMessage() *message.Message {
	if b.Empty() {
		return nil
	}
	return b.flits[b.head].Msg
}
