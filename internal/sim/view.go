package sim

import (
	"math/bits"

	"wormnet/internal/topology"
)

// channelView adapts a node's router state to the core.ChannelView
// interface consumed by injection limiters: the routing function plus the
// virtual-channel status register, exactly the information the paper's
// injection control unit sees. Each node caches one *channelView (node.view)
// so handing it to a limiter converts a pointer to an interface without
// allocating.
type channelView struct {
	e  *Engine
	nd *node
}

// UsefulPorts implements core.ChannelView: the distinct physical ports of the
// routing function's candidates for a locally generated message, which the
// candidate table keeps beside each set. Callers must not write to the slice.
func (v channelView) UsefulPorts(dst topology.NodeID) []topology.Port {
	return v.e.cand.ports(v.nd.id, dst)
}

// FreeVCs implements core.ChannelView: a population count of the port's field
// of the status register.
func (v channelView) FreeVCs(p topology.Port) int {
	vcs := uint(v.e.cfg.VCs)
	return bits.OnesCount64(v.nd.free >> (uint(p) * vcs) & (1<<vcs - 1))
}

// VCs implements core.ChannelView.
func (v channelView) VCs() int { return v.e.cfg.VCs }

// NumPorts implements core.ChannelView.
func (v channelView) NumPorts() int { return v.e.numPhys }

// QueuedMessages implements core.ChannelView.
func (v channelView) QueuedMessages() int { return v.nd.queue.Len() }

// HeadWait implements core.ChannelView.
func (v channelView) HeadWait() int64 {
	if v.nd.queue.Empty() {
		return 0
	}
	return v.e.now - v.e.front(v.nd).gen
}
