package router

import (
	"wormnet/internal/message"
)

// OutVC is the sender-side state of one output virtual channel: which
// message, if any, currently owns it. Ownership is taken when a head flit is
// allocated to the channel and released when the tail flit is transmitted
// through it.
type OutVC struct {
	owner *message.Message
}

// Free reports whether no message owns the channel.
func (v *OutVC) Free() bool { return v.owner == nil }

// Owner returns the owning message, or nil.
func (v *OutVC) Owner() *message.Message { return v.owner }

// Allocate assigns the channel to m. It panics if the channel is busy.
func (v *OutVC) Allocate(m *message.Message) {
	if v.owner != nil {
		panic("router: allocating busy output VC")
	}
	v.owner = m
}

// Release frees the channel. Releasing a free channel is a no-op so that
// deadlock recovery can release unconditionally.
func (v *OutVC) Release() { v.owner = nil }

// ReleaseIfOwner frees the channel only if m owns it, and reports whether it
// did. Deadlock recovery uses this to avoid releasing a channel that has
// already been re-allocated to another message.
func (v *OutVC) ReleaseIfOwner(m *message.Message) bool {
	if v.owner == m {
		v.owner = nil
		return true
	}
	return false
}
