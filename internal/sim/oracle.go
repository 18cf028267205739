package sim

// Ground-truth oracle exports for the exhaustive model checker
// (internal/modelcheck): the channel-wait graph of the current state and an
// independent re-evaluation of the ALO injection property. Both are
// read-only over engine state and must be called between Step calls.

import (
	"fmt"
	"math/bits"

	"wormnet/internal/core"
	"wormnet/internal/deadlock"
	"wormnet/internal/topology"
)

// BuildWaitGraph constructs the channel-wait graph of the current state:
// every in-flight message classified at the site of its header flit. A
// message whose header holds a route (or is draining into an ejection
// channel, or waits only for an ejection channel at its destination) is
// live; a message whose header sits unrouted is blocked, with one option
// per admissible output virtual channel — blocked by the channel's owner,
// or by the message whose flits still occupy the (otherwise free)
// channel's downstream buffer. See deadlock.WaitGraph for the liveness
// fixpoint that turns this into the ground-truth deadlocked set. The graph
// is the engine's own, rebuilt in place: it is valid until the next call.
func (e *Engine) BuildWaitGraph() *deadlock.WaitGraph {
	if e.waitGraph == nil {
		e.waitGraph = deadlock.NewWaitGraph()
	}
	g := e.waitGraph
	g.Reset()
	// Messages waiting in source/recovery/retry queues hold no network
	// resources and are outside the graph.
	for _, h := range e.held() {
		m, s := h.m, h.head
		id := int64(m.ID)
		switch {
		case s.nd == nil:
			// Header already consumed by an ejection channel (or the
			// message holds only body/tail flits behind a routed header):
			// the message is draining and always finishes.
			g.AddLive(id)
		case s.inj && e.injOf(s.nd.id)[s.agent].route.valid,
			!s.inj && e.routesOf(s.nd.id)[s.agent].valid:
			// Routed header: it claimed an output virtual channel with an
			// empty downstream buffer (or an ejection channel) and only its
			// own flits enter that buffer, so it always advances.
			g.AddLive(id)
		case m.Dst == s.nd.id:
			// Waiting for an ejection channel at the destination: ejection
			// channels drain unconditionally, never a deadlock.
			g.AddLive(id)
		default:
			g.AddBlocked(id)
			e.addWaitOptions(g, id, s.nd, m.Dst)
		}
	}
	return g
}

// addWaitOptions emits one wait-graph option per admissible output virtual
// channel of a blocked header at nd addressed to dst.
func (e *Engine) addWaitOptions(g *deadlock.WaitGraph, id int64, nd *node, dst topology.NodeID) {
	vcs := e.cfg.VCs
	for _, pc := range e.cand.get(nd.id, dst) {
		base := int(pc.port) * vcs
		for w := pc.mask; w != 0; w &= w - 1 {
			v := bits.TrailingZeros32(w)
			if owner := e.ownerOf(nd.id, base+v); owner != nil {
				g.AddOption(id, int64(owner.ID))
				continue
			}
			// Channel free: allocatable once the downstream buffer is
			// empty. Non-empty means the previous worm's flits are still
			// draining through it — the option waits on that message.
			down := &e.in[e.downstream(nd.id, pc.port, v)]
			if down.buf.Empty() {
				g.AddOption(id) // immediately available
			} else {
				g.AddOption(id, int64(down.buf.FrontMessage().ID))
			}
		}
	}
}

// VerifyInjectionProperty re-derives the paper's two rules — rule (a): every
// inspected physical channel has at least one free virtual channel; rule (b):
// some inspected physical channel is completely free — directly from raw
// output-VC ownership state for every node whose limiter is a member of the ALO
// family and whose source queue has a head, over the set the node's cached
// core.Rules value inspects (the useful channels, or all of them), and checks
// four implementations against it: the word-form gate the injection phase runs
// (gateWords, on the free word; CheckInvariants holds the queue's cached set id
// to the table), the value's Allow and ClassifyRules, and the Figure-3 gate
// circuit, whose output is rule (a) OR rule (b), evaluated on the raw status
// register. It is read-only (the family is stateless) and must run between
// Step calls.
func (e *Engine) VerifyInjectionProperty() error {
	vcs := e.cfg.VCs
	if e.circuit == nil {
		e.circuit = core.NewCircuit(e.numPhys, vcs)
		e.vcFree, e.useful = make([]core.Signal, e.numPhys*vcs), make([]core.Signal, e.numPhys)
	}
	circuit, vcFree, useful := e.circuit, e.vcFree, e.useful
	for i := range e.nodes {
		nd := &e.nodes[i]
		if nd.queue.Empty() || !nd.gated {
			continue
		}
		dst := e.front(nd).dst
		// Ground truth straight from the output-VC ownership state.
		for p := range useful {
			useful[p] = nd.rules.AllPorts
		}
		for _, pc := range e.cand.get(nd.id, dst) {
			useful[pc.port] = true
		}
		ruleA, ruleB := true, false
		for p, u := range useful {
			free := 0
			for v := 0; v < vcs; v++ {
				if e.ownerOf(nd.id, p*vcs+v) == nil {
					free++
				}
			}
			ruleA = ruleA && (!u || free != 0)
			ruleB = ruleB || u && free == vcs
		}
		want := nd.rules.A && ruleA || nd.rules.B && ruleB
		if ok, a, b := e.gateWords(nd, e.cand.id(nd.id, dst)); ok != want || a != ruleA || b != ruleB {
			return fmt.Errorf("sim: node %d dst %d: the word gate says %v (a=%v b=%v) on free=%#x, state says a=%v b=%v",
				nd.id, dst, ok, a, b, nd.free, ruleA, ruleB)
		}
		if got := nd.rules.Allow(nd.view, dst); got != want {
			return fmt.Errorf("sim: node %d dst %d: %s.Allow=%v but rules say a=%v b=%v",
				nd.id, dst, nd.rules.Name(), got, ruleA, ruleB)
		}
		if a, b := nd.rules.ClassifyRules(nd.view, dst); a != ruleA || b != ruleB {
			return fmt.Errorf("sim: node %d dst %d: %s.ClassifyRules=(%v,%v), state says (%v,%v)",
				nd.id, dst, nd.rules.Name(), a, b, ruleA, ruleB)
		}
		for v := range vcFree {
			vcFree[v] = e.ownerOf(nd.id, v) == nil
		}
		if got := circuit.Eval(vcFree, useful); got != (ruleA || ruleB) {
			return fmt.Errorf("sim: node %d dst %d: gate circuit=%v, rules say a=%v b=%v",
				nd.id, dst, got, ruleA, ruleB)
		}
	}
	return nil
}
