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
// consults, ablation variants of ALO (rule a only, rule b only, counting all
// physical channels instead of the useful ones), and an instrumented wrapper
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
// A Limiter instance belongs to a single node; stateful implementations
// (e.g. baseline.DRIL) keep per-node state across calls.
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

// Factory builds one Limiter instance per node. node identifies the node;
// vcs is the number of virtual channels per physical channel.
type Factory func(node topology.NodeID, t *topology.Torus, vcs int) Limiter

// StatefulLimiter is implemented by limiters that carry mutable per-node
// state across cycles (e.g. baseline.LF's EWMA, baseline.DRIL's frozen
// threshold) and therefore must be captured by engine snapshots. Stateless
// limiters (the ALO family) simply do not implement it. SaveState packs the
// state into words (floats as their IEEE-754 bits); LoadState restores it
// and fails on a word count its implementation does not recognise.
type StatefulLimiter interface {
	Limiter
	SaveState() []uint64
	LoadState([]uint64) error
}

// RuleClassifier is implemented by limiters whose decision decomposes into
// the paper's two rules. The engine's metrics layer uses it to attribute a
// denial to the rule(s) that failed — rule (a): some useful channel has no
// free virtual channel; rule (b): no useful channel is completely free —
// without re-deciding or altering the injection outcome.
type RuleClassifier interface {
	// ClassifyRules reports whether rule (a) and rule (b) hold for a
	// message addressed to dst, over the channel set the limiter inspects.
	ClassifyRules(v ChannelView, dst topology.NodeID) (ruleA, ruleB bool)
}

// WordGate is implemented by limiters whose whole decision is the paper's two
// rules over a channel set fixed up front: the ALO family. A simulator that
// holds the virtual-channel status register as one word asks once, when it
// builds the node, and from then on answers the gate with RuleWords — the
// Figure 3 circuit's own inputs — instead of walking a ChannelView per
// attempt. Allow and ClassifyRules stay the definition (and the test oracle).
type WordGate interface {
	// WordRules reports which rules admit a message (either, when both do)
	// and whether the limiter inspects every physical channel of the node
	// instead of the routing function's useful ones.
	WordRules() (ruleA, ruleB, allPorts bool)
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

// EvalRules evaluates both ALO rules over the useful channels: ruleA is
// "every useful physical channel has at least one free virtual channel",
// ruleB "at least one useful physical channel is completely free". It is
// the shared classification behind the ALO-family RuleClassifier
// implementations and the Figure-2 probe.
func EvalRules(v ChannelView, dst topology.NodeID) (ruleA, ruleB bool) {
	vcs := v.VCs()
	ruleA = true
	for _, p := range v.UsefulPorts(dst) {
		free := v.FreeVCs(p)
		if free == 0 {
			ruleA = false
		}
		if free == vcs {
			ruleB = true
		}
	}
	return ruleA, ruleB
}

// ALO is the paper's At-Least-One injection limitation mechanism.
// The zero value is ready to use; ALO is stateless.
type ALO struct{}

// NewALO returns the ALO limiter factory.
func NewALO() Factory {
	return func(topology.NodeID, *topology.Torus, int) Limiter { return ALO{} }
}

// Allow implements Limiter: rule (a) OR rule (b) over the useful channels.
func (ALO) Allow(v ChannelView, dst topology.NodeID) bool {
	vcs := v.VCs()
	allPartiallyFree := true
	for _, p := range v.UsefulPorts(dst) {
		free := v.FreeVCs(p)
		if free == vcs {
			return true // rule (b): a completely free useful channel
		}
		if free == 0 {
			allPartiallyFree = false
		}
	}
	return allPartiallyFree // rule (a): every useful channel has a free VC
}

// Name implements Limiter.
func (ALO) Name() string { return "alo" }

// WordRules implements WordGate.
func (ALO) WordRules() (ruleA, ruleB, allPorts bool) { return true, true, false }

// ClassifyRules implements RuleClassifier.
func (ALO) ClassifyRules(v ChannelView, dst topology.NodeID) (bool, bool) {
	return EvalRules(v, dst)
}

// RuleAOnly is the ablation variant that applies only ALO's first rule:
// inject iff every useful physical channel has at least one free virtual
// channel. The paper's Figure 2 shows this alone is a good but occasionally
// over-restrictive congestion indicator.
type RuleAOnly struct{}

// NewRuleAOnly returns the factory for the rule-(a)-only ablation.
func NewRuleAOnly() Factory {
	return func(topology.NodeID, *topology.Torus, int) Limiter { return RuleAOnly{} }
}

// Allow implements Limiter.
func (RuleAOnly) Allow(v ChannelView, dst topology.NodeID) bool {
	for _, p := range v.UsefulPorts(dst) {
		if v.FreeVCs(p) == 0 {
			return false
		}
	}
	return true
}

// Name implements Limiter.
func (RuleAOnly) Name() string { return "alo-rule-a" }

// WordRules implements WordGate.
func (RuleAOnly) WordRules() (ruleA, ruleB, allPorts bool) { return true, false, false }

// ClassifyRules implements RuleClassifier.
func (RuleAOnly) ClassifyRules(v ChannelView, dst topology.NodeID) (bool, bool) {
	return EvalRules(v, dst)
}

// RuleBOnly is the ablation variant that applies only ALO's second rule:
// inject iff at least one useful physical channel is completely free. The
// paper's Figure 2 shows this alone is a poor congestion indicator.
type RuleBOnly struct{}

// NewRuleBOnly returns the factory for the rule-(b)-only ablation.
func NewRuleBOnly() Factory {
	return func(topology.NodeID, *topology.Torus, int) Limiter { return RuleBOnly{} }
}

// Allow implements Limiter.
func (RuleBOnly) Allow(v ChannelView, dst topology.NodeID) bool {
	vcs := v.VCs()
	for _, p := range v.UsefulPorts(dst) {
		if v.FreeVCs(p) == vcs {
			return true
		}
	}
	return false
}

// Name implements Limiter.
func (RuleBOnly) Name() string { return "alo-rule-b" }

// WordRules implements WordGate.
func (RuleBOnly) WordRules() (ruleA, ruleB, allPorts bool) { return false, true, false }

// ClassifyRules implements RuleClassifier.
func (RuleBOnly) ClassifyRules(v ChannelView, dst topology.NodeID) (bool, bool) {
	return EvalRules(v, dst)
}

// AllChannels is the ablation variant that evaluates the ALO predicate over
// every physical channel of the node instead of only the useful ones. It
// demonstrates why restricting attention to the routing function's output
// matters: under non-uniform patterns it reacts to congestion in regions the
// message would never traverse.
type AllChannels struct{}

// NewAllChannels returns the factory for the all-channels ablation.
func NewAllChannels() Factory {
	return func(topology.NodeID, *topology.Torus, int) Limiter { return AllChannels{} }
}

// Allow implements Limiter.
func (AllChannels) Allow(v ChannelView, _ topology.NodeID) bool {
	vcs := v.VCs()
	allPartiallyFree := true
	for p := 0; p < v.NumPorts(); p++ {
		free := v.FreeVCs(topology.Port(p))
		if free == vcs {
			return true
		}
		if free == 0 {
			allPartiallyFree = false
		}
	}
	return allPartiallyFree
}

// Name implements Limiter.
func (AllChannels) Name() string { return "alo-all-channels" }

// WordRules implements WordGate.
func (AllChannels) WordRules() (ruleA, ruleB, allPorts bool) { return true, true, true }

// ClassifyRules implements RuleClassifier over all physical channels (the
// set this ablation actually inspects).
func (AllChannels) ClassifyRules(v ChannelView, _ topology.NodeID) (bool, bool) {
	vcs := v.VCs()
	ruleA, ruleB := true, false
	for p := 0; p < v.NumPorts(); p++ {
		free := v.FreeVCs(topology.Port(p))
		if free == 0 {
			ruleA = false
		}
		if free == vcs {
			ruleB = true
		}
	}
	return ruleA, ruleB
}
