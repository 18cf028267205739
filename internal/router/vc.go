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

// OutPort is the sender-side state of one physical output channel: its
// virtual channels plus the round-robin pointer used to multiplex them on
// the physical link.
type OutPort struct {
	VCs []OutVC
	// rr is the index of the virtual channel to consider first at the next
	// switch-allocation round (demand-driven VC multiplexing).
	rr int
}

// NewOutPort returns an output port with v virtual channels.
func NewOutPort(v int) *OutPort {
	return &OutPort{VCs: make([]OutVC, v)}
}

// FreeVCs returns the number of unallocated virtual channels.
func (p *OutPort) FreeVCs() int {
	n := 0
	for i := range p.VCs {
		if p.VCs[i].Free() {
			n++
		}
	}
	return n
}

// CompletelyFree reports whether every virtual channel is unallocated — the
// paper's "completely free physical channel" (ALO rule b).
func (p *OutPort) CompletelyFree() bool {
	return p.FreeVCs() == len(p.VCs)
}

// HasFreeVC reports whether at least one virtual channel is unallocated —
// the per-channel test of ALO rule (a).
func (p *OutPort) HasFreeVC() bool {
	for i := range p.VCs {
		if p.VCs[i].Free() {
			return true
		}
	}
	return false
}

// NextRR returns the round-robin start index and advances the pointer.
func (p *OutPort) NextRR() int {
	r := p.rr
	p.rr = (p.rr + 1) % len(p.VCs)
	return r
}
