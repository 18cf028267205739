// Package core implements the paper's primary contribution: the ALO
// ("At Least One") message-injection limitation mechanism that prevents
// wormhole networks from entering saturation.
//
// Before a newly generated message is injected, the routing function is
// executed for it; injection is permitted iff
//
//   - rule (a): every useful physical output channel (every physical channel
//     returned by the routing function) has at least one free virtual
//     channel, OR
//   - rule (b): at least one useful physical channel is completely free
//     (none of its virtual channels is allocated).
//
// Otherwise the message waits in the source queue. The mechanism has no
// threshold to tune, adapts to arbitrary destination distributions because
// it only inspects channels the message could actually use, and reduces to a
// handful of logic gates in hardware (see gates.go, which models the
// paper's Figure 3 circuit and is property-tested against the predicate).
//
// The package also provides the Limiter interface that the simulation engine
// consults, ALO and its ablations (rule a only, rule b only, counting all
// physical channels instead of the useful ones) as the four values of one
// type, Rules, and an instrumented wrapper
// used to reproduce the paper's Figure 2.
package core

import (
	"wormnet/internal/topology"
)

// ChannelView is the router-local state an injection limiter may inspect:
// exactly the information available to the injection control unit of a node
// (the routing function plus the virtual-channel status register).
type ChannelView interface {
	// UsefulPorts returns the physical output ports the routing function
	// yields for a locally generated message addressed to dst. The slice is
	// only valid until the next call.
	UsefulPorts(dst topology.NodeID) []topology.Port
	// FreeVCs returns the number of unallocated virtual channels of
	// physical output port p.
	FreeVCs(p topology.Port) int
	// VCs returns the number of virtual channels per physical channel.
	VCs() int
	// NumPorts returns the number of physical network output ports (2n).
	NumPorts() int
	// QueuedMessages returns the current source-queue length of the node,
	// used by threshold-adapting baseline mechanisms (not by ALO).
	QueuedMessages() int
	// HeadWait returns how many cycles the source queue's head message has
	// been waiting since generation (0 with an empty queue). Threshold
	// mechanisms use it for starvation avoidance; ALO does not need it.
	HeadWait() int64
}

// Limiter decides whether a newly generated message may be injected now.
// A stateful implementation (e.g. baseline.DRIL) keeps per-node state across
// calls, so each node has an instance of its own; a stateless one may be
// shared by every node.
type Limiter interface {
	// Allow reports whether the message addressed to dst may enter the
	// network in the current cycle.
	Allow(v ChannelView, dst topology.NodeID) bool
	// Name returns the mechanism's short name as used in reports.
	Name() string
}

// CycleObserver is implemented by limiters that need a per-cycle hook (e.g.
// to adapt thresholds). The engine calls Tick once per node per cycle.
type CycleObserver interface {
	Tick(v ChannelView, now int64)
}

// Factory builds the limiters of a whole network, one per node and indexed by
// node id; vcs is the number of virtual channels per physical channel. Building
// them together lets a stateful mechanism carve its nodes from one array and a
// stateless one hand every node the same value: a network's limiters cost a
// few objects, not one a node. PerNode adapts a per-node constructor.
type Factory func(t *topology.Torus, vcs int) []Limiter

// PerNode returns the Factory that calls newLimiter once for each node, in
// node order: the adapter for a constructor that builds one limiter at a
// time, such as a custom mechanism's.
func PerNode(newLimiter func(node topology.NodeID, t *topology.Torus, vcs int) Limiter) Factory {
	return func(t *topology.Torus, vcs int) []Limiter {
		ls := make([]Limiter, t.Nodes())
		for i := range ls {
			ls[i] = newLimiter(topology.NodeID(i), t, vcs)
		}
		return ls
	}
}

// Shared returns the Factory that hands every node l itself: the factory of a
// limiter without per-node state.
func Shared(l Limiter) Factory {
	return PerNode(func(topology.NodeID, *topology.Torus, int) Limiter { return l })
}

// StatefulLimiter is implemented by limiters that carry mutable per-node
// state across cycles (e.g. baseline.LF's EWMA, baseline.DRIL's frozen
// threshold) and therefore must be captured by engine snapshots. Stateless
// limiters (the ALO family) simply do not implement it. AppendState appends
// the state to dst as words (floats as their IEEE-754 bits) and returns the
// extended slice, so a snapshot reuses its own storage; LoadState restores
// it and fails on a word count its implementation does not recognise.
type StatefulLimiter interface {
	Limiter
	AppendState(dst []uint64) []uint64
	LoadState([]uint64) error
}

// RuleWords is EvalRules on a status register held as one word: bit p*vcs+v
// of free is set while virtual channel v of physical channel p is unallocated,
// and useful has bit p*vcs set for every channel p of the inspected set. The
// OR (AND) of free over the vcs shifts leaves gate C (D) of channel p at bit
// p*vcs, so each rule is one mask test. Bits of free at or above
// (ports)*vcs must be clear.
func RuleWords(free, useful uint64, vcs int) (ruleA, ruleB bool) {
	some, all := free, free
	for v := 1; v < vcs; v++ {
		some |= free >> uint(v)
		all &= free >> uint(v)
	}
	return some&useful == useful, all&useful != 0
}

// EvalRules evaluates both rules over the useful channels, ALO's set: ruleA
// is "every useful physical channel has at least one free virtual channel",
// ruleB "at least one useful physical channel is completely free". It is the
// classification of the Figure-2 probe.
func EvalRules(v ChannelView, dst topology.NodeID) (ruleA, ruleB bool) {
	return ALO.ClassifyRules(v, dst)
}

// Rules is the ALO family: the paper's two rules over one channel set, rule
// (a) admitting when A is set and rule (b) when B is. The set is the routing
// function's useful channels, or every physical channel of the node with
// AllPorts. Its four members are ALO and its three ablations, and it has no
// state: a simulator that holds the virtual-channel status register as one
// word reads which rules admit and over which set off the value once, when it
// builds the node, and from then on answers the gate with RuleWords — the
// Figure 3 circuit's own inputs — instead of walking a ChannelView. Allow and
// ClassifyRules stay the definition (and the test oracle).
type Rules struct{ A, B, AllPorts bool }

// The ALO family.
var (
	// ALO is the paper's At-Least-One mechanism: rule (a) OR rule (b) over
	// the useful channels.
	ALO = Rules{A: true, B: true}
	// RuleAOnly applies rule (a) alone. The paper's Figure 2 shows it a good
	// but occasionally over-restrictive congestion indicator.
	RuleAOnly = Rules{A: true}
	// RuleBOnly applies rule (b) alone, which Figure 2 shows is a poor
	// congestion indicator.
	RuleBOnly = Rules{B: true}
	// AllChannels is ALO over every physical channel of the node instead of
	// the useful ones: under non-uniform patterns it reacts to congestion in
	// regions the message would never traverse, which is why restricting
	// attention to the routing function's output matters.
	AllChannels = Rules{A: true, B: true, AllPorts: true}
)

// NewALO returns the ALO limiter factory. It and the three ablations' hand
// every node the one Limiter boxing their member: a node's limiter costs no
// allocation.
func NewALO() Factory { return Shared(ALO) }

// NewRuleAOnly returns the factory for the rule-(a)-only ablation.
func NewRuleAOnly() Factory { return Shared(RuleAOnly) }

// NewRuleBOnly returns the factory for the rule-(b)-only ablation.
func NewRuleBOnly() Factory { return Shared(RuleBOnly) }

// NewAllChannels returns the factory for the all-channels ablation.
func NewAllChannels() Factory { return Shared(AllChannels) }

// Admits reports whether r lets a message in given which rules hold.
func (r Rules) Admits(ruleA, ruleB bool) bool { return r.A && ruleA || r.B && ruleB }

// Allow implements Limiter.
func (r Rules) Allow(v ChannelView, dst topology.NodeID) bool {
	return r.Admits(r.ClassifyRules(v, dst))
}

// ClassifyRules reports whether rule (a) and rule (b) hold for a message
// addressed to dst, over the channel set r inspects.
func (r Rules) ClassifyRules(v ChannelView, dst topology.NodeID) (ruleA, ruleB bool) {
	useful := v.UsefulPorts(dst)
	n := len(useful)
	if r.AllPorts {
		n = v.NumPorts()
	}
	ruleA = true
	for i := 0; i < n; i++ {
		p := topology.Port(i)
		if !r.AllPorts {
			p = useful[i]
		}
		free := v.FreeVCs(p)
		ruleA = ruleA && free != 0
		ruleB = ruleB || free == v.VCs()
	}
	return ruleA, ruleB
}

// Name implements Limiter: alo, alo-rule-a, alo-rule-b or alo-all-channels,
// the four members' names.
func (r Rules) Name() string {
	switch {
	case r.AllPorts:
		return "alo-all-channels"
	case !r.B:
		return "alo-rule-a"
	case !r.A:
		return "alo-rule-b"
	}
	return "alo"
}
